"""The consensus proposer (Figures 9, 14, 15).

In the initial view a proposer skips the consult phase and immediately
sends ``prepare⟨v, 0, nil, ∅⟩``.  When elected for a later view ``w`` it
runs the consult phase: ``new_view`` to all acceptors, gather valid
``new_view_ack``s from a quorum not yet known faulty, run ``choose()``;
on abort the quorum is blacklisted and the proposer waits for another
quorum (Figure 15 lines 3-8), which the paper proves terminates once a
quorum of benign acceptors answers.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Optional, Sequence, Set, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.crypto.signatures import SignatureService
from repro.sim.conditions import Check
from repro.sim.process import Process
from repro.sim.tasks import WaitUntil
from repro.sim.trace import Trace
from repro.consensus.choose import choose as run_choose
from repro.consensus.acceptor import INIT_VIEW
from repro.consensus.messages import (
    Decision,
    DecisionPull,
    NewView,
    NewViewAck,
    Prepare,
    Sync,
    ViewChange,
)
from repro.consensus.validate import (
    validate_new_view_ack,
    view_change_statement,
)

AcceptorId = Hashable
QuorumId = FrozenSet[AcceptorId]


class Proposer(Process):
    """A benign proposer."""

    def __init__(
        self,
        pid: Hashable,
        rqs: RefinedQuorumSystem,
        proposers: Sequence[Hashable],
        service: SignatureService,
        trace: Trace,
        delta: float = 1.0,
        sync_delay: float = 10.0,
    ):
        super().__init__(pid)
        self.rqs = rqs
        self._acceptors = rqs.ground_set
        self.proposers = tuple(proposers)
        self.service = service
        self.trace = trace
        self.sync_delay = sync_delay
        self.delta = delta

        self.view = INIT_VIEW
        self.view_proof: Optional[Tuple[ViewChange, ...]] = None
        self.value: Any = None
        self.halted = False
        self._proposed_once = False
        self._faulty: Set[QuorumId] = set()
        # per-view valid new_view_acks: view -> {acceptor: NewViewAck}
        self._acks: Dict[int, Dict[AcceptorId, NewViewAck]] = {}
        # view_change certificates: view -> {acceptor: ViewChange}
        self._view_changes: Dict[int, Dict[AcceptorId, ViewChange]] = {}
        self._decisions: Dict[Any, Set[Hashable]] = {}
        # Outstanding consult-phase waits: signalled whenever one of the
        # predicate's inputs (acks, view, halted) changes.
        self._consult_watches: list = []

    def _signal_consult(self) -> None:
        for condition in self._consult_watches:
            condition.signal()

    def leader_of(self, view: int) -> Hashable:
        return self.proposers[view % len(self.proposers)]

    # -- message handling -----------------------------------------------------

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, NewViewAck):
            self._handle_new_view_ack(src, payload)
        elif isinstance(payload, ViewChange):
            self._handle_view_change(src, payload)
        elif isinstance(payload, Decision):
            self._handle_decision(src, payload)

    def _handle_new_view_ack(self, src: AcceptorId, ack: NewViewAck) -> None:
        view = ack.body.view
        if not validate_new_view_ack(self.service, self.rqs, src, ack, view):
            return
        self._acks.setdefault(view, {})[src] = ack
        self._signal_consult()

    def _handle_view_change(self, src: AcceptorId, message: ViewChange) -> None:
        if self.halted or src not in self._acceptors:
            return
        signed = message.signature
        if signed.signer != src or not self.service.verify(signed):
            return
        if signed.content != view_change_statement(message.next_view):
            return
        bucket = self._view_changes.setdefault(message.next_view, {})
        bucket[src] = message
        next_view = message.next_view
        if next_view <= self.view:
            return
        if self.leader_of(next_view) != self.pid:
            return
        if self.rqs.contains_quorum(bucket):
            # Elected (Figure 14 lines 10-13).
            self.view_proof = tuple(
                bucket[s] for s in sorted(bucket, key=repr)
            )
            self.view = next_view
            # A consult wait for an older view must notice it was
            # abandoned (its predicate reads self.view).
            self._signal_consult()
            if self.value is not None:
                self.sim.spawn(
                    self._propose_in_current_view(),
                    f"{self.pid} propose view {next_view}",
                )

    def _handle_decision(self, src: Hashable, decision: Decision) -> None:
        senders = self._decisions.setdefault(decision.value, set())
        senders.add(src)
        if self.rqs.contains_quorum(senders):
            self.halted = True  # Figure 15 line 104
            self._signal_consult()

    # -- proposing ----------------------------------------------------------------

    def propose(self, value: Any):
        """Coroutine: propose ``value`` (spawn on the simulator)."""
        record, = self.trace.begin(
            "propose", self.pid, self.sim.now, ((value, 0),)
        )
        self.value = value
        if not self._proposed_once:
            self._proposed_once = True
            self.sim.call_later(self.sync_delay, self._post_propose_sync)
        yield from self._propose_in_current_view()
        self.trace.complete((record,), self.sim.now, ("proposed",), 0)
        return record

    def _post_propose_sync(self) -> None:
        """Figure 15 lines 101-103: arm acceptor timers and pull decisions."""
        if self.halted or self.crashed:
            return
        for acceptor in self.rqs.servers:
            self.send(acceptor, Sync())
            self.send(acceptor, DecisionPull())

    def resync(self) -> None:
        """Re-send the post-propose Sync/DecisionPull (a client
        retransmitting over lossy pre-GST channels; the scenario layer's
        ``Resync`` workload op)."""
        self._post_propose_sync()

    def _propose_in_current_view(self):
        view = self.view
        if view != INIT_VIEW:
            # Consult phase (Figure 15 lines 2-8).
            self.send_all(self.rqs.servers, NewView(view, self.view_proof))
            while True:
                quorum_holder: Dict[str, QuorumId] = {}

                def some_fresh_quorum() -> bool:
                    if self.view != view or self.halted:
                        return True  # abandon: a newer view took over
                    acks = self._acks.get(view, ())
                    for candidate in self.rqs.responding_quorums(acks):
                        if candidate not in self._faulty:
                            quorum_holder["q"] = candidate
                            return True
                    return False

                condition = Check(
                    some_fresh_quorum, "{} consult view {}", (self.pid, view)
                )
                self._consult_watches.append(condition)
                try:
                    yield WaitUntil(condition)
                finally:
                    self._consult_watches.remove(condition)
                if self.view != view or self.halted:
                    return
                quorum = quorum_holder["q"]
                acks = self._acks[view]
                v_proof_bodies = {a: acks[a].body for a in quorum}
                result = run_choose(
                    self.rqs, self.value, v_proof_bodies, quorum
                )
                if result.abort:
                    self._faulty.add(quorum)  # line 7
                    continue
                chosen = result.value
                v_proof = tuple(acks[a] for a in sorted(quorum, key=repr))
                self.send_all(
                    self.rqs.servers, Prepare(chosen, view, v_proof, quorum)
                )
                return
        # Initial view: no consult phase (Figure 9).
        self.send_all(
            self.rqs.servers, Prepare(self.value, INIT_VIEW, None, None)
        )


class EquivocatingProposer(Proposer):
    """Byzantine proposer: sends different initial-view values to
    different halves of the acceptors (the classic attack the view-change
    machinery must recover from)."""

    benign = False

    def __init__(self, *args, value_a: Any = "A", value_b: Any = "B", **kwargs):
        super().__init__(*args, **kwargs)
        self.value_a = value_a
        self.value_b = value_b

    def _propose_in_current_view(self):
        acceptors = self.rqs.servers
        half = len(acceptors) // 2
        self.send_all(
            acceptors[:half], Prepare(self.value_a, INIT_VIEW, None, None)
        )
        self.send_all(
            acceptors[half:], Prepare(self.value_b, INIT_VIEW, None, None)
        )
        return
        yield  # pragma: no cover - makes this a generator
