"""Shared multi-writer machinery: stamp issuing, discovery bookkeeping,
writer fleets.

Every storage protocol lifts to multiple writers the same way — bare
per-key sequence counters in the paper's SWMR mode, totally-ordered
``(seq, writer_id)`` stamps (see
:func:`~repro.storage.history.make_stamp`) preceded by a
timestamp-discovery round in MW mode.  The three helpers here hold the
mechanics once so the two writers (RQS and the count-quorum kernel)
cannot drift:

* :class:`StampIssuer` — per-key sequence accounting and the
  single-writer/multi-writer timestamp encoding choice.
* :class:`DiscoveryInbox` — numbered pending-query bookkeeping for the
  discovery round's replies (dedup per sender, a signalling
  :class:`~repro.sim.conditions.AckSet` per query).
* :func:`writer_fleet` — the writer-client naming/indexing convention
  (``writer``, ``writer2``, …; ``writer_id=None`` when the fleet is a
  single SWMR writer).

Protocols keep what genuinely differs: which message asks the question,
which reply field carries the observed timestamp, and which quorum
shape ends the wait.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.sim.conditions import AckSet, ConditionMap
from repro.storage.history import DEFAULT_KEY, make_stamp, stamp_seq


class StampIssuer:
    """Per-key timestamp issuing for one writer.

    ``writer_id=None`` is the SWMR mode: bare per-key counters, the
    historical encoding, no discovery.  An integer ``writer_id`` is the
    MW mode: :meth:`stamped` folds a discovery round's observed
    timestamp into the writer's own sequence and stamps the result.
    """

    __slots__ = ("writer_id", "_seq")

    def __init__(self, writer_id: Optional[int] = None):
        self.writer_id = writer_id
        self._seq: Dict[Hashable, int] = {}

    @property
    def multi_writer(self) -> bool:
        return self.writer_id is not None

    def seq(self, key: Hashable = DEFAULT_KEY) -> int:
        """The latest sequence number issued for ``key`` (0 initially)."""
        return self._seq.get(key, 0)

    def bare(self, key: Hashable) -> int:
        """Next SWMR timestamp: the bare per-key counter."""
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        return seq

    def stamped(self, key: Hashable, observed_ts: int) -> int:
        """Next MW stamp, above both ``observed_ts`` and own history."""
        seq = max(stamp_seq(observed_ts), self._seq.get(key, 0)) + 1
        self._seq[key] = seq
        return make_stamp(seq, self.writer_id)


class DiscoveryInbox:
    """Reply bookkeeping for numbered discovery queries.

    :meth:`open` starts a query; :meth:`record` files one sender's
    reply (deduplicated) into the query's signalling responder
    :class:`~repro.sim.conditions.AckSet` — wait on
    :meth:`responders` ``.at_least(k)`` (count quorums) or
    ``.includes_quorum(rqs.contains_quorum)`` (identity quorums); :meth:`close`
    retires the query and hands back the collected replies.  Each open
    query keeps its responder set beside its replies, so a reply costs
    one dict probe and one ``add``.
    """

    __slots__ = ("_next", "_pending", "_acks")

    def __init__(self, label: str = "ts-discovery#{}"):
        self._next = 0
        self._pending: Dict[int, Tuple[Dict[Hashable, Any], AckSet]] = {}
        self._acks = ConditionMap(AckSet, label)

    def open(self) -> int:
        self._next += 1
        self._pending[self._next] = ({}, self._acks(self._next))
        return self._next

    def record(self, number: int, sender: Hashable, reply: Any) -> None:
        """File ``reply`` for query ``number`` (no-op if the query is
        closed or the sender already answered)."""
        pending = self._pending.get(number)
        if pending is not None:
            replies, acks = pending
            if sender not in replies:
                replies[sender] = reply
                acks.add(sender)

    def responders(self, number: int) -> AckSet:
        """The query's signalling responder set (for wait conditions)."""
        return self._pending[number][1]

    def close(self, number: int) -> Dict[Hashable, Any]:
        """Retire the query and return sender → reply.

        Also drops the query's responder set, so long-running writers
        keep O(in-flight) discovery state (late replies to a closed
        query are already no-ops in :meth:`record`)."""
        self._acks.discard(number)
        return self._pending.pop(number)[0]


def writer_fleet(
    n_writers: int, build: Callable[[Hashable, Optional[int]], Any]
) -> List[Any]:
    """The writer clients of one deployment, built by ``build(pid,
    writer_id)``.

    Writer 0 keeps the historical pid ``"writer"`` (single-writer specs
    stay byte-identical); further writers are ``writer2``, ``writer3``,
    … — and only fleets of more than one writer get real ``writer_id``
    indices (a lone writer is the SWMR mode).
    """
    count = max(n_writers, 1)
    return [
        build(
            "writer" if index == 0 else f"writer{index + 1}",
            index if count > 1 else None,
        )
        for index in range(count)
    ]
