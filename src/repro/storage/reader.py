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
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import AckSet, ConditionMap, Event
from repro.sim.tasks import WaitUntil
from repro.sim.trace import Trace
from repro.storage.batching import (
    BatchAck,
    ReadBatch,
    ReadBatchAck,
    WriteBatch,
)
from repro.storage.history import DEFAULT_KEY, Pair
from repro.storage.messages import RD, RdAck, WR, WrAck
from repro.storage.predicates import ReadState
from repro.storage.writer import StorageClient

QuorumId = FrozenSet[Hashable]
#: A write-back plan (see :meth:`StorageReader._plan`): the round the
#: write-back starts at and the class-2 quorum ids its first round
#: carries — or ``None``, no write-back.
Plan = Optional[Tuple[int, FrozenSet[QuorumId]]]

_TS = attrgetter("ts")
#: Line 42: one round-2 write-back.
_ROUND2 = (2, frozenset())
#: Line 49: the full two-round write-back.
_TWO_ROUNDS = (1, frozenset())


class StorageReader(StorageClient):
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
        super().__init__(pid, rqs, trace, delta, selector)
        self.read_no = 0
        self._state: Optional[ReadState] = None
        self._current_read_no = -1
        #: Write-back responder sets, keyed (key, ts, rnd) (signalling).
        self._wb = ConditionMap(AckSet, "wb key={} ts={} rnd={}")
        # Batched-read state: per-element ReadStates (fed positionally
        # from each ReadBatchAck) plus one batch-level responder set per
        # collect round; the write-back groups count theirs in
        # ``_batches``.
        self._batch_states: Dict[int, Tuple[ReadState, ...]] = {}
        self._batch_acks = ConditionMap(AckSet, "rd batch#{} rnd={}")

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

        csel, rounds = yield from self._regular_part(state, key, targets)
        # Surface the selected timestamp for the stamp-ordered online
        # checker (every completion path returns csel.val).
        record.ts = csel.ts
        plan = self._plan(state, csel, rounds)
        if plan is not None:
            def send_round(rnd, sets):
                self.send_all(targets, WR(csel.ts, csel.val, sets, rnd, key))
                return self._wb(key, csel.ts, rnd)

            rounds += yield from self._atomicity_part(plan, send_round)
        self.trace.complete((record,), self.sim.now, (csel.val,), rounds)
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
                "read#{} round {}", (self.read_no, read_rnd),
            )
            try:
                yield WaitUntil(quorum_cond)
            finally:
                state.unwatch(quorum_cond)
            if read_rnd == 1:
                yield WaitUntil(timer)
                state.freeze_round1()
            candidates = state.candidates()
            if candidates:
                return max(candidates, key=_TS), read_rnd

    def _plan(self, state: ReadState, csel: Pair, read_rnd: int) -> Plan:
        """The atomicity part ``csel`` needs (lines 40-49), decided by
        the best-case detector over the replies ``state`` holds:

        * ``None`` — ``BCD(csel, 1, ·)`` holds in round 1: return now;
        * :data:`_ROUND2` — ``BCD(csel, 2, R)`` is non-empty for some
          ``R ∈ {2, 3}``: one round-2 write-back;
        * ``(1, x1)`` — ``x1 = BCD(csel, 2, 1)`` is non-empty: a round-1
          write-back carrying ``x1``, then round 2 unless some quorum of
          ``x1`` acked it within ``2Δ``;
        * :data:`_TWO_ROUNDS` — otherwise, line 49.
        """
        if read_rnd == 1:
            if any(state.bcd1(csel, r) for r in (1, 2, 3)):
                return None
            if state.bcd2(csel, 2) or state.bcd2(csel, 3):
                return _ROUND2
            x1 = state.bcd2(csel, 1)
            if x1:
                return (1, frozenset(x1))
        return _TWO_ROUNDS

    def _atomicity_part(self, plan: Plan, send_round):
        """Run a write-back ``plan``: ``send_round(rnd, sets)`` writes
        ``csel`` back in round ``rnd`` (one ``WR``, or one
        :class:`WriteBatch` for a group of elements) and returns the
        responder set that counts its acks.  Returns the rounds the
        write-back took."""
        first, x1 = plan
        if first == 2:
            # Line 42: the writer already stored csel at a full quorum;
            # one round-2 write-back finishes the read.
            yield from self._writeback(send_round, 2, frozenset())
            return 1
        if x1:
            # Lines 43-47: round-1 write-back carrying the confirmed
            # class-2 quorum ids, with a 2Δ window to finish fast.
            timer = self.sim.timer_at(self.sim.now + self.timeout)
            acked = yield from self._writeback(send_round, 1, x1)
            yield WaitUntil(timer)
            if any(q2 <= acked for q2 in x1):
                return 1
        else:
            # Line 49: full two-round write-back.
            yield from self._writeback(send_round, 1, frozenset())
        yield from self._writeback(send_round, 2, frozenset())
        return 2

    def _writeback(self, send_round, rnd: int, sets: FrozenSet[QuorumId]):
        """``writeback(round, c, Set)`` (lines 60-62): send one round and
        await a quorum of acks.  Returns the round's responders."""
        acks = send_round(rnd, sets)
        yield WaitUntil(acks.includes_quorum(self.rqs.contains_quorum))
        return acks

    # -- batched protocol --------------------------------------------------------

    def read_batch(self, keys: List[Hashable]):
        """Up to ``batch_size`` reads through one Figure 7 regular part:
        per-element :class:`ReadState`s fed positionally from shared
        :class:`ReadBatchAck` replies, one batch-level responder set per
        round.  A batch shares its responders, so each element takes
        the decision its unbatched read takes over the same replies:
        each collect round hands every element it resolves the
        :meth:`_plan` :meth:`read` uses.  Elements whose plan is "no
        write-back" complete at once; the others harvested at one
        instant with the same plan form a group that writes back
        through one :class:`WriteBatch` per round, concurrently with
        further collect rounds — each group a task of its own, whose
        completion the batch waits for before it returns."""
        records = self.trace.begin(
            "read", self.pid, self.sim.now, [(None, key) for key in keys]
        )
        target = self.selector.next_read() if self.selector else None
        targets = self._targets(target)
        self.read_no += 1
        number = self.read_no
        states = tuple(ReadState(self.rqs) for _ in keys)
        self._batch_states[number] = states
        unresolved = range(len(keys))
        written_back = []
        read_rnd = 0
        while unresolved:
            # Every round carries the full key tuple, so the positional
            # on_message feed (and the servers' reply shape) never
            # changes; only the harvest below is element-wise.
            read_rnd += 1
            timer = (
                self.sim.timer_at(self.sim.now + self.timeout)
                if read_rnd == 1
                else None
            )
            acks = self._batch_acks(number, read_rnd)
            self.send_all(targets, ReadBatch(number, read_rnd, tuple(keys)))
            quorum = acks.includes_quorum(self.rqs.contains_quorum)
            if timer is not None:
                yield WaitUntil(timer)
            yield WaitUntil(quorum)
            if read_rnd == 1:
                for state in states:
                    state.freeze_round1()
            groups: Dict[Plan, list] = {}
            pending = []
            for i in unresolved:
                candidates = states[i].candidates()
                if not candidates:
                    pending.append(i)
                    continue
                csel = max(candidates, key=_TS)
                records[i].ts = csel.ts
                plan = self._plan(states[i], csel, read_rnd)
                groups.setdefault(plan, []).append((records[i], csel, keys[i]))
            unresolved = pending
            if not unresolved:
                # Regular part done for every element: straggler acks
                # can no longer matter, release the batch state.
                self._batch_states.pop(number, None)
                for rnd in range(1, read_rnd + 1):
                    self._batch_acks.discard(number, rnd)
            for plan, members in groups.items():
                if plan is None:
                    self._complete(members, read_rnd)
                    continue
                group = self._batches.open()
                done = Event()
                written_back.append(done)
                self.sim.spawn(self._write_back_group(
                    group, plan, members, read_rnd, targets, done,
                ), f"{self.pid} write-back#{group}")
        for done in written_back:
            yield WaitUntil(done)
        return records

    def _write_back_group(self, group, plan, members, read_rnd, targets, done):
        """The atomicity part of the elements harvested at one instant
        with one ``plan``, as write-back ``group``: one
        :class:`WriteBatch` per round stores every member as its
        unbatched ``WR`` would; sets ``done`` at the end."""
        ops = tuple((csel.ts, csel.val, key) for _, csel, key in members)

        def send_round(rnd, sets):
            self.send_all(targets, WriteBatch(group, rnd, "", ops, sets))
            return self._batches.responders(group, rnd)

        rounds = yield from self._atomicity_part(plan, send_round)
        self._batches.close(group, 1, 2)
        self._complete(members, read_rnd + rounds)
        done.set()

    def _complete(self, members, rounds: int) -> None:
        """Complete one wave of batch elements (in element order)."""
        self.trace.complete(
            [record for record, _, _ in members], self.sim.now,
            [csel.val for _, csel, _ in members], rounds,
        )
