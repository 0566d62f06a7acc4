"""The storage reader (Figure 7).

A read has two parts:

1. **Regular part** (lines 20-35): rounds of ``rd`` messages until the
   candidate set ``C = {c | safe(c) ∧ highCand(c)}`` is non-empty; the
   highest-timestamped candidate ``csel`` is selected.  Round 1
   additionally waits out the ``2Δ`` timer, fixes ``highest_ts`` and
   records the responding class-2 quorums ``QC'2``.
2. **Atomicity part** (lines 40-49): a write-back orchestrated by the
   best-case detector ``BCD``:

   * ``BCD(csel, 1, ·)`` holds in round 1 → return immediately
     (1-round read);
   * ``BCD(csel, 2, R)`` non-empty for ``R ∈ {2,3}`` → one round-2
     write-back (2-round read);
   * ``BCD(csel, 2, 1)`` non-empty → a round-1 write-back carrying those
     class-2 quorum ids; if one of them fully acks within ``2Δ`` the read
     returns (2 rounds), else a round-2 write-back completes it
     (3 rounds);
   * otherwise → round-1 then round-2 write-backs (read_rnd + 2 rounds).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import AckSet, AllOf, AnyOf, ConditionMap
from repro.sim.process import Process
from repro.sim.tasks import WaitUntil
from repro.sim.trace import Trace
from repro.storage.batching import (
    BatchAck,
    BatchAcks,
    ReadBatch,
    ReadBatchAck,
    WriteBatch,
)
from repro.storage.history import DEFAULT_KEY, Pair
from repro.storage.messages import RD, RdAck, WR, WrAck
from repro.storage.predicates import ReadState

QuorumId = FrozenSet[Hashable]


class StorageReader(Process):
    """A reader client (any number of them may exist).

    Reads address one register of the keyed space; all predicate state
    is per-read and the server snapshots it accumulates are scoped to
    the read's key, so the Figure 7 machinery is untouched by the lift.
    """

    def __init__(
        self,
        pid: Hashable,
        rqs: RefinedQuorumSystem,
        trace: Optional[Trace] = None,
        delta: float = 1.0,
        selector=None,
    ):
        super().__init__(pid)
        self.rqs = rqs
        self.trace = trace if trace is not None else Trace()
        self.timeout = 2.0 * delta
        #: Optional :class:`~repro.core.strategy.QuorumSelector`.  When
        #: set, each read draws one quorum from the strategy and sends
        #: only to its members (all rounds and write-backs of that read
        #: share the draw); ``None`` keeps the paper's broadcast model.
        self.selector = selector
        self.read_no = 0
        self._state: Optional[ReadState] = None
        self._current_read_no = -1
        #: Write-back responder sets, keyed (key, ts, rnd) (signalling).
        self._wb = ConditionMap(AckSet, "wb key={} ts={} rnd={}")
        # Batched-read state: per-element ReadStates (fed positionally
        # from each ReadBatchAck) plus one batch-level responder set per
        # round, and batch write-back acks.
        self._batch_states: Dict[int, Tuple[ReadState, ...]] = {}
        self._batch_acks = ConditionMap(AckSet, "rd batch#{} rnd={}")
        self._batches = BatchAcks("rd-wb batch#{} rnd={}")

    # -- network ------------------------------------------------------------------

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, RdAck):
            if payload.read_no == self._current_read_no and self._state is not None:
                self._state.record_ack(src, payload.rnd, payload.history)
        elif isinstance(payload, WrAck):
            self._wb(payload.key, payload.ts, payload.rnd).add(src)
        elif isinstance(payload, ReadBatchAck):
            states = self._batch_states.get(payload.read_no)
            acks = self._batch_acks.peek(payload.read_no, payload.rnd)
            if states is not None and acks is not None:
                # Feed every element's state before signalling the
                # batch-level condition, so a woken waiter sees all of
                # this responder's snapshots.
                for state, snapshot in zip(states, payload.replies):
                    state.record_ack(src, payload.rnd, snapshot)
                acks.add(src)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, src)

    # -- protocol -------------------------------------------------------------------

    def read(self, key: Hashable = DEFAULT_KEY):
        """Coroutine implementing ``read()`` on one register — spawn on
        the simulator.

        Returns the operation's record; ``record.result`` is the value.
        """
        record, = self.trace.begin(
            "read", self.pid, self.sim.now, ((None, key),)
        )
        # One strategy draw per operation: every round and write-back of
        # this read targets the same drawn quorum.
        target = self.selector.next_read() if self.selector else None
        targets = self._targets(target)
        self.read_no += 1
        self._current_read_no = self.read_no
        self._wb = ConditionMap(AckSet, "wb key={} ts={} rnd={}")
        state = ReadState(self.rqs)
        self._state = state

        csel, read_rnd = yield from self._regular_part(state, key, targets)

        # -- part 2: BCD-orchestrated write-back (lines 40-49) --
        # Surface the selected timestamp for the stamp-ordered online
        # checker (every completion path below returns csel.val).
        record.ts = csel.ts
        if read_rnd == 1 and any(state.bcd1(csel, r) for r in (1, 2, 3)):
            self.trace.complete((record,), self.sim.now, (csel.val,), 1)
            return record

        x1 = state.bcd2(csel, 1)
        x23 = state.bcd2(csel, 2) + state.bcd2(csel, 3)
        if read_rnd == 1 and (x1 or x23):
            if x23:
                # Line 42: the writer already stored csel at a full quorum;
                # one round-2 write-back finishes the read in 2 rounds.
                yield from self._writeback(2, csel, frozenset(), key, targets)
                self.trace.complete((record,), self.sim.now, (csel.val,), 2)
                return record
            # Lines 43-47: round-1 write-back carrying the confirmed
            # class-2 quorum ids, with a 2Δ window to finish fast.
            wb_timer = self.sim.timer_at(self.sim.now + self.timeout)
            yield from self._writeback(1, csel, frozenset(x1), key, targets)
            yield WaitUntil(wb_timer, f"read#{self.read_no} writeback timer")
            acked = self._wb(key, csel.ts, 1)
            if any(q2 <= acked for q2 in x1):
                self.trace.complete((record,), self.sim.now, (csel.val,), 2)
                return record
            yield from self._writeback(2, csel, frozenset(), key, targets)
            self.trace.complete((record,), self.sim.now, (csel.val,), 3)
            return record

        # Line 49: full two-round write-back.
        yield from self._writeback(1, csel, frozenset(), key, targets)
        yield from self._writeback(2, csel, frozenset(), key, targets)
        self.trace.complete(
            (record,), self.sim.now, (csel.val,), read_rnd + 2
        )
        return record

    def _regular_part(self, state: ReadState, key: Hashable, targets):
        """Part 1 of a read (lines 20-35): rounds of ``rd`` to
        ``targets`` until the candidate set is non-empty.  Returns
        ``(csel, read_rnd)`` — the highest-timestamped candidate and the
        round that produced it."""
        read_rnd = 0
        while True:
            read_rnd += 1
            timer = (
                self.sim.timer_at(self.sim.now + self.timeout)
                if read_rnd == 1
                else None
            )
            self.send_all(targets, RD(self.read_no, read_rnd, key))

            quorum_cond = state.when(
                partial(state.round_quorum, read_rnd),
                f"read#{self.read_no} round {read_rnd}",
            )
            try:
                yield WaitUntil(quorum_cond)
            finally:
                state.unwatch(quorum_cond)
            if read_rnd == 1:
                yield WaitUntil(timer, f"read#{self.read_no} round-1 timer")
                state.freeze_round1()
            candidates = state.candidates()
            if candidates:
                return max(candidates, key=lambda p: p.ts), read_rnd

    def _writeback(
        self,
        rnd: int,
        c: Pair,
        qc2_ids: FrozenSet[QuorumId],
        key: Hashable = DEFAULT_KEY,
        targets=None,
    ):
        """``writeback(round, c, Set)`` (lines 60-62): write ``c`` back to
        all servers (or the read's drawn quorum) and await a quorum of
        acks."""
        if targets is None:
            targets = self.rqs.servers
        self.send_all(targets, WR(c.ts, c.val, qc2_ids, rnd, key))
        yield WaitUntil(
            self._wb(key, c.ts, rnd).includes_quorum(self.rqs.contains_quorum)
        )

    def _targets(self, target):
        """The servers one round contacts: the drawn quorum under a
        strategy, the full ground set otherwise."""
        if target is None:
            return self.rqs.servers
        return sorted(target, key=repr)

    # -- batched protocol --------------------------------------------------------

    def read_batch(self, keys: List[Hashable]):
        """Up to ``batch_size`` reads through one Figure 7 regular part:
        per-element :class:`ReadState`s fed positionally from shared
        :class:`ReadBatchAck` replies, one batch-level responder set per
        round.  **Completion is per element**: the elements whose
        candidate sets resolve in collect round ``r`` form a *cohort*
        that immediately launches its own batched line 49 two-round
        write-back — concurrently with further collect rounds for the
        still-unresolved elements — and they complete when that
        write-back quorum-acks.  A contended or lossy element therefore
        caps its *own* tail latency, never the whole batch's.  The BCD
        fast paths are per-element race detections and are skipped —
        always-safe, at worst two extra batch round-trips that unbatched
        BCD would have avoided."""
        records = self.trace.begin(
            "read", self.pid, self.sim.now, [(None, key) for key in keys]
        )
        target = self.selector.next_read() if self.selector else None
        targets = self._targets(target)
        self.read_no += 1
        number = self.read_no
        states = tuple(ReadState(self.rqs) for _ in keys)
        self._batch_states[number] = states

        unresolved = set(range(len(keys)))
        csels: List[Optional[Pair]] = [None] * len(keys)
        cohorts: List[dict] = []
        read_rnd = 0
        collect_cond = None
        while unresolved or cohorts:
            if unresolved and collect_cond is None:
                # -- regular part (lines 20-35): next batch-wide round.
                # Every round keeps carrying the full key tuple so the
                # positional on_message feed (and the servers' reply
                # shape) never changes; only the harvest below is
                # element-wise.
                read_rnd += 1
                acks = self._batch_acks(number, read_rnd)
                self.send_all(
                    targets, ReadBatch(number, read_rnd, tuple(keys))
                )
                quorum = acks.includes_quorum(self.rqs.contains_quorum)
                collect_cond = (
                    AllOf(
                        self.sim.timer_at(self.sim.now + self.timeout), quorum
                    )
                    if read_rnd == 1
                    else quorum
                )
            waits = [cohort["cond"] for cohort in cohorts]
            if collect_cond is not None:
                waits.append(collect_cond)
            yield WaitUntil(
                waits[0] if len(waits) == 1 else AnyOf(*waits),
                f"read batch#{number} round {read_rnd}",
            )
            # -- advance the in-flight cohort write-backs --
            advancing = cohorts
            cohorts = []
            for cohort in advancing:
                if not cohort["cond"].holds():
                    cohorts.append(cohort)
                elif cohort["rnd"] == 1:
                    cohort["rnd"] = 2
                    cohort["cond"] = self._cohort_writeback(
                        cohort, 2, targets
                    )
                    cohorts.append(cohort)
                else:
                    # A cohort resolved in one collect round: one wave.
                    self._batches.close(cohort["no"], 1, 2)
                    wave = cohort["members"]
                    self.trace.complete(
                        [records[i] for i in wave], self.sim.now,
                        [csels[i].val for i in wave],
                        cohort["read_rnd"] + 2,
                    )
            # -- harvest the collect round, if it resolved --
            if collect_cond is None or not collect_cond.holds():
                continue
            collect_cond = None
            if read_rnd == 1:
                for state in states:
                    state.freeze_round1()
            members = []
            for i in sorted(unresolved):
                candidates = states[i].candidates()
                if candidates:
                    csels[i] = max(candidates, key=lambda p: p.ts)
                    records[i].ts = csels[i].ts
                    members.append(i)
            if not members:
                continue
            unresolved.difference_update(members)
            if not unresolved:
                # Regular part done for every element: straggler acks
                # can no longer matter, release the batch state (the
                # cohort write-backs track their own responder sets).
                self._batch_states.pop(number, None)
                for rnd in range(1, read_rnd + 1):
                    self._batch_acks.discard(number, rnd)
            # -- atomicity part for this cohort (line 49), launched now --
            cohort = {
                "no": self._batches.open(),
                "rnd": 1,
                "read_rnd": read_rnd,
                "members": tuple(members),
                "ops": tuple(
                    (csels[i].ts, csels[i].val, keys[i]) for i in members
                ),
            }
            cohort["cond"] = self._cohort_writeback(cohort, 1, targets)
            cohorts.append(cohort)
        return records

    def _cohort_writeback(self, cohort: dict, rnd: int, targets):
        """Send one round of a cohort's batched line 49 write-back and
        return the quorum condition its elements wait on."""
        wb_acks = self._batches.responders(cohort["no"], rnd)
        self.send_all(targets, WriteBatch(
            cohort["no"], rnd, "", cohort["ops"], frozenset()
        ))
        return wb_acks.includes_quorum(self.rqs.contains_quorum)
