"""Wire messages of the RQS consensus algorithm (Figures 9-15).

``Update`` messages are unauthenticated (they carry the best-case path);
``NewViewAck``, ``SignAck`` and ``ViewChange`` are authenticated via
:class:`repro.crypto.signatures.Signed` wrappers, used only outside the
best case, per the paper's model.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Hashable, Optional, Tuple

from repro.crypto.signatures import Signed
from repro.records import record

QuorumId = FrozenSet[Hashable]


@record(frozen=True, slots=True)
class Prepare:
    """``prepare⟨v, view, vProof, Q⟩`` (Figure 15 line 9)."""

    value: Any
    view: int
    v_proof: Optional[Tuple[Signed, ...]]   # new_view_acks; None in initView
    quorum: Optional[QuorumId]              # the quorum vProof came from


@record(frozen=True, slots=True)
class Update:
    """``update_step⟨v, view, Q⟩`` (Figure 15 lines 33/38).

    ``step ∈ {1, 2, 3}``; ``quorum`` is ``∅``-equivalent ``None`` for
    step 1 and the triggering quorum for steps 2 and 3.
    """

    step: int
    value: Any
    view: int
    quorum: Optional[QuorumId]


def update_statement(step: int, value: Any, view: int) -> Tuple:
    """Canonical signable content of an update message (``Q`` excluded:
    ``sign_req`` matches ``update_step⟨v, w, ∗⟩``)."""
    return ("update", step, value, view)


@record(frozen=True, slots=True)
class NewView:
    """``new_view⟨view, viewProof⟩`` (Figure 15 line 2)."""

    view: int
    view_proof: Optional[Tuple[Signed, ...]]  # signed view_change messages


@record(frozen=True, slots=True, eq=False)
class AckData:
    """The unsigned body of a ``new_view_ack`` (Figure 15 line 28).

    Mirrors the acceptor variables: ``prep``/``prep_view`` (last prepared
    value and its views), ``update[step]`` / ``update_view[step]`` /
    ``update_q[(step, w)]`` / ``update_proof[(step, w)]`` for
    ``step ∈ {1, 2}``.  The body is signed via :meth:`canonical`.
    """

    view: int
    prep: Any
    prep_view: FrozenSet[int]
    update: "dict[int, Any]"
    update_view: "dict[int, FrozenSet[int]]"
    update_q: "dict[tuple[int, int], Tuple[QuorumId, ...]]"
    update_proof: "dict[tuple[int, int], Tuple[Signed, ...]]"

    def update_q_of(self, step: int, view: int) -> Tuple[QuorumId, ...]:
        return self.update_q.get((step, view), ())

    def update_proof_of(self, step: int, view: int) -> Tuple[Signed, ...]:
        return self.update_proof.get((step, view), ())

    def canonical(self) -> Tuple:
        """A hashable form binding every field (signature content)."""
        return (
            "new_view_ack",
            self.view,
            self.prep,
            tuple(sorted(self.prep_view)),
            tuple(sorted(self.update.items(), key=repr)),
            tuple(
                sorted(
                    ((k, tuple(sorted(v))) for k, v in self.update_view.items()),
                    key=repr,
                )
            ),
            tuple(sorted(self.update_q.items(), key=repr)),
            tuple(sorted(self.update_proof.items(), key=repr)),
        )


@record(frozen=True, slots=True)
class NewViewAck:
    """A signed ``new_view_ack``: the body plus the acceptor signature."""

    body: AckData
    signature: Signed


@record(frozen=True, slots=True)
class SignReq:
    """``sign_req⟨v, w, step⟩`` (Figure 15 line 24)."""

    value: Any
    view: int
    step: int


@record(frozen=True, slots=True)
class SignAck:
    """``sign_ack⟨m⟩σ`` (Figure 15 line 29): a signed update statement."""

    signature: Signed


@record(frozen=True, slots=True)
class ViewChange:
    """``view_change⟨nextView⟩σ`` (Figure 14 line 4)."""

    next_view: int
    signature: Signed


@record(frozen=True, slots=True)
class Decision:
    """``decision⟨v⟩`` (Figure 14 line 7 / Figure 15 line 40)."""

    value: Any


@record(frozen=True, slots=True)
class DecisionPull:
    """``⟨decision_pull⟩`` (Figure 15 line 103)."""


@record(frozen=True, slots=True)
class Sync:
    """``sync`` (Figure 15 line 102): arms acceptor suspect timers."""
