"""The consensus acceptor (Figures 10, 12, 14, 15).

One class implements the Locking-module acceptor (prepare/update cascade,
consult phase) and the Election-module acceptor (suspect timers and
``view_change`` certificates).  All handlers are event-driven; the only
multi-message interaction — gathering ``sign_ack`` signatures before
answering a ``new_view`` — is tracked with an explicit pending record.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.crypto.signatures import SignatureService, Signed
from repro.sim.conditions import Event
from repro.sim.process import Process
from repro.consensus.choose import choose as run_choose
from repro.consensus.decisions import DecisionTracker
from repro.consensus.messages import (
    AckData,
    Decision,
    DecisionPull,
    NewView,
    NewViewAck,
    Prepare,
    SignAck,
    SignReq,
    Sync,
    Update,
    ViewChange,
    update_statement,
)
from repro.consensus.validate import (
    validate_new_view_ack,
    validate_view_proof,
    view_change_statement,
)

INIT_VIEW = 0

AcceptorId = Hashable
QuorumId = FrozenSet[AcceptorId]


class _PendingNewViewAck:
    """Bookkeeping for one outstanding new_view reply (lines 23-27)."""

    def __init__(self, proposer: Hashable, view: int, needed: Set[Tuple[int, int]]):
        self.proposer = proposer
        self.view = view
        self.needed = needed
        self.collected: Dict[Tuple[int, int], Dict[Hashable, Signed]] = {
            key: {} for key in needed
        }


class Acceptor(Process):
    """A benign consensus acceptor."""

    def __init__(
        self,
        pid: AcceptorId,
        rqs: RefinedQuorumSystem,
        proposers: Sequence[Hashable],
        learners: Sequence[Hashable],
        service: SignatureService,
        delta: float = 1.0,
        max_views: int = 30,
    ):
        super().__init__(pid)
        self.rqs = rqs
        #: ``S``, looked up once: every update asks whether its sender
        #: is an acceptor.
        self._acceptors = rqs.ground_set
        self.proposers = tuple(proposers)
        self.learners = tuple(learners)
        #: Who an update goes to, in broadcast order.
        self._update_targets = (*rqs.servers, *self.learners)
        self.service = service
        self.delta = delta

        # -- Locking-module state (Figure 15 initialization) --
        self.view = INIT_VIEW
        self.prep: Any = None
        self.prep_view: Set[int] = set()
        self.update: Dict[int, Any] = {1: None, 2: None}
        self.update_view: Dict[int, Set[int]] = {1: set(), 2: set()}
        self.update_q: Dict[Tuple[int, int], Set[QuorumId]] = {}
        self.update_proof: Dict[Tuple[int, int], Tuple[Signed, ...]] = {}
        self.old: Set[Tuple] = set()
        self.decided: Optional[Any] = None
        #: Waitable "this acceptor decided" condition (see Learner).
        self.decided_event = Event(f"{pid} decided")

        # Who sent which update statement: sender masks over rqs.index,
        # kept by the decision tracker (one mask serves the decide
        # rules and the cascade).
        self._index = rqs.index
        self._decisions = DecisionTracker(rqs)
        # (step, value, view) -> the part of that statement's sender
        # mask whose quorums the cascade has already triggered.
        self._scanned: Dict[Tuple[int, Any, int], int] = {}
        self._pending_nva: Optional[_PendingNewViewAck] = None

        # -- Election-module state (Figure 14) --
        self.suspect_timeout = 5.0 * delta
        self.next_view = INIT_VIEW
        self.max_views = max_views
        self._timer_armed = False
        self._timer_stopped = False
        self._timer_generation = 0
        self._decision_senders: Dict[Any, int] = {}  # value -> mask

    # -- helpers -----------------------------------------------------------------

    def leader_of(self, view: int) -> Hashable:
        return self.proposers[view % len(self.proposers)]

    def _broadcast_update(self, update: Update) -> None:
        self.old.add(update_statement(update.step, update.value, update.view))
        self.send_all(self._update_targets, update)
        # The paper's model delivers a process's broadcast to itself too.
        self._handle_update(self.pid, update)

    # -- dispatch -------------------------------------------------------------------

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, Update):
            self._handle_update(src, payload)
        elif isinstance(payload, Prepare):
            self._handle_prepare(src, payload)
        elif isinstance(payload, NewView):
            self._handle_new_view(src, payload)
        elif isinstance(payload, SignReq):
            self._handle_sign_req(src, payload)
        elif isinstance(payload, SignAck):
            self._handle_sign_ack(src, payload)
        elif isinstance(payload, Decision):
            self._handle_decision(src, payload)
        elif isinstance(payload, DecisionPull):
            self._handle_decision_pull(src)
        elif isinstance(payload, Sync):
            self._arm_suspect_timer()

    # -- prepare (lines 31-33) ---------------------------------------------------------

    def _handle_prepare(self, src: Hashable, prepare: Prepare) -> None:
        if prepare.view == INIT_VIEW:
            self._arm_suspect_timer()
        if prepare.view != self.view:
            return
        if not all(w < self.view for w in self.prep_view):
            return
        if self.view != INIT_VIEW:
            if src != self.leader_of(self.view):
                return
            if not self._prepare_proof_ok(prepare):
                return
        value = prepare.value
        if self.prep == value:
            self.prep_view.add(self.view)
        else:
            self.prep = value
            self.prep_view = {self.view}
        self._broadcast_update(Update(1, value, self.view, None))

    def _prepare_proof_ok(self, prepare: Prepare) -> bool:
        """Re-validate ``vProof`` and check ``v`` against ``choose()``.

        The verdict depends on the system, the genuine signatures and
        the payload alone, and the receivers of one broadcast share the
        payload, so a Prepare is judged once per run: the run's
        signature service keeps the ones accepted.  A refusal is judged
        again, since a signature missing now may be made later.
        """
        if prepare.v_proof is None or prepare.quorum is None:
            return False
        accepted = self.service.accepted
        key = (self.rqs, prepare)
        if key in accepted:
            return True
        if not self.rqs.is_quorum(prepare.quorum):
            return False
        v_proof: Dict[AcceptorId, AckData] = {}
        for ack in prepare.v_proof:
            sender = ack.signature.signer
            if not validate_new_view_ack(
                self.service, self.rqs, sender, ack, prepare.view
            ):
                return False
            v_proof[sender] = ack.body
        if not prepare.quorum <= set(v_proof):
            return False
        result = run_choose(
            self.rqs, prepare.value, v_proof, prepare.quorum
        )
        if result.abort or result.value != prepare.value:
            return False
        accepted.add(key)
        return True

    # -- update cascade (lines 34-38) -----------------------------------------------------

    def _handle_update(self, src: AcceptorId, update: Update) -> None:
        if src not in self._acceptors:
            return
        decisions = self._decisions
        decided = decisions.record(src, update)
        # This statement's sender mask, kept before the cascade's own
        # broadcasts feed the tracker the next step's statement.
        mask = decisions.mask
        if decided is not None:
            self._decide(decided)
        step, value, view = update.step, update.value, self.view
        if step not in (1, 2):
            return
        if (
            value != self.prep
            or update.view != view
            or view not in self.prep_view
        ):
            return
        # Lines 34-38 trigger once per quorum Q of senders.  Every
        # quorum inside ``scanned`` has triggered already, so only the
        # quorums through a sender that arrived since can be new.
        key = (step, value, view)
        new = mask & ~self._scanned.get(key, 0)
        if not new:
            return
        fitting = self._index.newly_responding(mask, new)
        if not fitting:
            self._scanned[key] = mask
            return
        # The state update is the same for every triggering quorum.
        if self.update[step] == value:
            self.update_view[step].add(view)
        else:
            self.update[step] = value
            self.update_view[step] = {view}
            self._forget_step(step)
        self._scanned[key] = mask
        quorum_at = self._index.quorum_at
        stored = self.update_q.setdefault((step, view), set())
        if step == 2:
            # One update3 per view: the first fitting quorum, once.
            if not stored:
                self._fire(3, value, quorum_at[fitting[0]], stored)
            return
        # One update2 per quorum of update1 senders, in rqs.quorums
        # order (a newly fitting quorum cannot have been stored yet).
        for quorum_mask in fitting:
            self._fire(2, value, quorum_at[quorum_mask], stored)

    def _fire(
        self, step: int, value: Any, quorum: QuorumId, stored: Set[QuorumId]
    ) -> None:
        stored.add(quorum)
        self._broadcast_update(Update(step, value, self.view, quorum))

    def _forget_step(self, step: int) -> None:
        """``update[step]`` changed value: the quorums, proofs and scan
        marks recorded for the old one go."""
        for table in (self.update_q, self.update_proof, self._scanned):
            for key in [k for k in table if k[0] == step]:
                del table[key]

    # -- deciding (lines 51-53 + Figure 14 line 7, line 40) ---------------------------------

    def _decide(self, value: Any) -> None:
        if self.decided is not None:
            return
        self.decided = value
        self.decided_event.set()
        self.send_all(self.rqs.servers, Decision(value))
        self._record_decision(self.pid, value)

    def _handle_decision(self, src: Hashable, decision: Decision) -> None:
        self._record_decision(src, decision.value)

    def _record_decision(self, src: Hashable, value: Any) -> None:
        bit = self._index.bit.get(src, 0)
        before = self._decision_senders.get(value, 0)
        if bit & ~before:
            senders = self._decision_senders[value] = before | bit
            # A quorum of deciders can only complete through the new one.
            if self._index.newly_responding(senders, bit):
                self._stop_suspect_timer()

    def _handle_decision_pull(self, src: Hashable) -> None:
        if self.decided is not None:
            self.send(src, Decision(self.decided))

    # -- consult phase (lines 21-29) ------------------------------------------------------

    def _handle_new_view(self, src: Hashable, new_view: NewView) -> None:
        if new_view.view <= self.view:
            return
        if src != self.leader_of(new_view.view):
            return
        if not validate_view_proof(
            self.service, self.rqs, new_view.view, new_view.view_proof
        ):
            return
        self.view = new_view.view
        needed = {
            (step, w)
            for step in (1, 2)
            for w in self.update_view[step]
            if not self.update_proof.get((step, w))
        }
        self._pending_nva = _PendingNewViewAck(src, new_view.view, needed)
        if not needed:
            self._send_new_view_ack()
            return
        for step, w in sorted(needed, key=repr):
            quorums = self.update_q.get((step, w))
            targets = (
                sorted(next(iter(quorums)), key=repr)
                if quorums
                else self.rqs.servers
            )
            request = SignReq(self.update[step], w, step)
            self.send_all(targets, request)
            # An acceptor can sign its own statement immediately.
            if self.pid in targets:
                self._handle_sign_req(self.pid, request)

    def _handle_sign_req(self, src: Hashable, request: SignReq) -> None:
        statement = update_statement(request.step, request.value, request.view)
        if statement in self.old:
            signed = self.service.sign(self.pid, statement)
            if src == self.pid:
                self._handle_sign_ack(self.pid, SignAck(signed))
            else:
                self.send(src, SignAck(signed))

    def _handle_sign_ack(self, src: Hashable, ack: SignAck) -> None:
        pending = self._pending_nva
        if pending is None:
            return
        signed = ack.signature
        if signed.signer != src or not self.service.verify(signed):
            return
        if src not in self._acceptors:
            return  # only acceptors vouch for an update statement
        content = signed.content
        for step, w in list(pending.needed):
            statement = update_statement(step, self.update[step], w)
            if content != statement:
                continue
            bucket = pending.collected[(step, w)]
            bucket[src] = signed
            if self._index.is_basic(self._index.mask(bucket)):
                self.update_proof[(step, w)] = tuple(
                    bucket[s] for s in sorted(bucket, key=repr)
                )
                pending.needed.discard((step, w))
        if not pending.needed and pending.view == self.view:
            self._send_new_view_ack()

    def _send_new_view_ack(self) -> None:
        pending = self._pending_nva
        if pending is None:
            return
        self._pending_nva = None
        body = AckData(
            view=self.view,
            prep=self.prep,
            prep_view=frozenset(self.prep_view),
            update=dict(self.update),
            update_view={
                step: frozenset(views)
                for step, views in self.update_view.items()
            },
            update_q={
                key: tuple(sorted(values, key=repr))
                for key, values in self.update_q.items()
            },
            update_proof=dict(self.update_proof),
        )
        signature = self.service.sign(self.pid, self.service.canonical(body))
        self.send(pending.proposer, NewViewAck(body, signature))

    # -- election module (Figure 14, acceptor side) -------------------------------------------

    def _arm_suspect_timer(self) -> None:
        if self._timer_armed or self._timer_stopped:
            return
        self._timer_armed = True
        self._schedule_suspect()

    def _schedule_suspect(self) -> None:
        generation = self._timer_generation
        self.sim.call_later(
            self.suspect_timeout, lambda: self._suspect_fired(generation)
        )

    def _suspect_fired(self, generation: int) -> None:
        if (
            generation != self._timer_generation
            or self._timer_stopped
            or self.crashed
        ):
            return
        self._timer_generation += 1
        self.suspect_timeout *= 2.0
        self.next_view += 1
        if self.next_view > self.max_views:
            return  # simulation bound, not part of the protocol
        leader = self.leader_of(self.next_view)
        signed = self.service.sign(
            self.pid, view_change_statement(self.next_view)
        )
        self.send(leader, ViewChange(self.next_view, signed))
        self._schedule_suspect()

    def _stop_suspect_timer(self) -> None:
        self._timer_stopped = True
        self._timer_generation += 1
