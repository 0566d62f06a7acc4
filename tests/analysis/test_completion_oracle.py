"""Differential oracle for what completed operations cost.

Every completed operation of a streamed run passes through
``Trace.complete -> LatencyAccumulator.observe ->
OnlineChecker.on_complete``.  That path used to *recompute* two things
per operation — the window floor and the overrun eviction, by walking
the in-flight set, and the exact latency sum, by building and
normalising two ``Fraction``s — and now *maintains* them: a
lazily-deleted heap of invocations, a lower bound on the oldest
in-flight op id, an integer numerator over the common denominator.  It
is also paid per *wave* — the records one client begins or completes at
one instant — not per record.  The recomputing, record-at-a-time code
lives on *only here*, verbatim:

* :class:`ReferenceScanningChecker` — ``on_begin`` / ``on_complete`` /
  ``_evict`` / ``_sweep`` and ``_KeyState.prune`` as they were (the
  rules, ``_complete_write`` / ``_complete_read``, are shared; the
  ``pruned_at`` bookkeeping in them is inert in a reference that
  prunes unconditionally);
* :class:`ReferenceFractionAccumulator` / :class:`ReferenceReservoir` —
  ``LatencyAccumulator.observe`` and ``QuantileReservoir.observe`` as
  they were (the sum's slot is spelled ``time_sum`` here, like the
  public property that replaced the private one).

The reference takes a history a record at a time and the shipped
checker the same steps cut into waves (of one, or of 1–16 drawn), and
the two must hold *identical state* after **every** wave — floor,
in-flight set, evicted set, every per-key window / series / bound, the
sampled ``max_retained`` — and return the same report, on the
client-consistent histories of ``test_checker_oracle.py`` and on
free-form feeds a simulator would never produce but a ``Trace`` can:
begins out of time order, batches of 1–16 operations sharing one
interval, clients stuck past the overrun bound, waves straddling a
sweep or an eviction.  The accumulators must agree on ``float`` /
``int`` / ``Fraction`` streams fed in waves of identical samples past
the reservoir's capacity, down to the RNG state.  Ten seeded bugs are
each killed by a named input.
"""

import random
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from heapq import heapify

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.latency import LatencySummary
from repro.analysis.streaming import (
    LatencyAccumulator,
    OnlineChecker,
    QuantileReservoir,
    _KeyState,
)
from repro.sim.trace import OperationRecord
from repro.storage.history import BOTTOM
from tests.analysis.test_checker_oracle import (
    STUCK_OVERRUN,
    _OverKeyState,
    build_history,
    churn,
    read,
    replay as value_ordered_replay,
    shapes,
    write,
)
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant


# -- the reference checker: the scanning window, verbatim ----------------------

class ReferenceKeyState(_KeyState):
    __slots__ = ()

    def prune(self, floor: float) -> None:
        """Fold state older than the window ``floor`` into the bounds."""
        index = bisect_left(self.write_times, floor)
        if index:
            self.base_write_bound = self.write_stamps[index - 1]
            del self.write_times[:index]
            del self.write_stamps[:index]
        index = bisect_left(self.read_times, floor)
        if index:
            self.base_read_bound = self.read_stamps[index - 1]
            del self.read_times[:index]
            del self.read_stamps[:index]
        if self.base_write_bound is not None and self.window:
            bound = self.base_write_bound
            stale = [
                stamp
                for stamp, (_, completed_at, _value) in self.window.items()
                if completed_at < floor and stamp < bound
            ]
            for stamp in stale:
                del self.window[stamp]


class ReferenceScanningChecker(_OverKeyState):
    """The parent's window: every completion walks the in-flight set
    twice (the eviction comprehension, ``min`` over the values) and
    prunes its key unconditionally."""

    key_state = ReferenceKeyState

    def on_begin(self, record) -> None:
        if record.kind in ("write", "read"):
            self._pending[record.op_id] = record.invoked_at
            if record.op_id > self._max_op_id:
                self._max_op_id = record.op_id
            if record.kind == "write":
                self._pending_writes[record.op_id] = record.key, record.value
                inflight = self._state(record.key).inflight
                inflight[record.value] = record.invoked_at

    def on_complete(self, record) -> None:
        if record.kind not in ("write", "read"):
            return
        if record.op_id in self._overrun:
            # The window moved past this op while it was stuck; its
            # bounds are gone, so judging it now could flag legal
            # behaviour.  Skip it, visibly.
            self._overrun.discard(record.op_id)
            self.overrun_unchecked += 1
            return
        if record.kind == "write":
            self._complete_write(record)
        else:
            self._complete_read(record)
        self._pending.pop(record.op_id, None)
        # Evict stuck in-flight ops so they cannot pin the floor and
        # regrow O(ops) retained state (the crashed-reader case).
        if self._pending:
            horizon = self._max_op_id - self.overrun_ops
            for op in [op for op in self._pending if op < horizon]:
                self._evict(op)
        self._floor = min(self._pending.values(), default=record.completed_at)
        self._keys[record.key].prune(self._floor)
        # Periodic global sweep: prune every key to the shared floor
        # and sample the total retained state for the high-water mark
        # (O(keys) amortized over SWEEP_EVERY completions).
        self._since_sweep += 1
        if self._since_sweep >= self.SWEEP_EVERY:
            self._sweep()

    def _evict(self, op_id: int) -> None:
        """Move one stuck op out of the window; reads parked on a stuck
        write can no longer be resolved and count as skipped."""
        del self._pending[op_id]
        self._overrun.add(op_id)
        entry = self._pending_writes.pop(op_id, None)
        if entry is not None:
            key, value = entry
            state = self._state(key)
            state.inflight.pop(value, None)
            state.evicted.add(value)
            self.overrun_unchecked += len(state.parked.pop(value, ()))

    def _sweep(self) -> None:
        self._since_sweep = 0
        retained = len(self._pending) + len(self._overrun)
        for state in self._keys.values():
            state.prune(self._floor)
            retained += state.retained()
        if retained > self.max_retained:
            self.max_retained = retained


# -- one feed, both checkers ---------------------------------------------------

#: Everything a key holds except the shipped checker's own bookkeeping.
KEY_SLOTS = tuple(
    slot for slot in _KeyState.__slots__ if slot != "pruned_at"
)


def state_of(checker):
    return {
        "floor": checker._floor,
        "pending": dict(checker._pending),
        "pending_writes": dict(checker._pending_writes),
        "overrun": set(checker._overrun),
        "max_op_id": checker._max_op_id,
        "since_sweep": checker._since_sweep,
        "max_retained": checker.max_retained,
        "counts": (checker.checked_writes, checker.checked_reads,
                   checker.violation_count, checker.overrun_unchecked),
        "violations": list(checker.violations),
        "keys": {
            key: {slot: getattr(state, slot) for slot in KEY_SLOTS}
            for key, state in checker._keys.items()
        },
    }


def assert_heap_is_bounded(checker):
    """What keeps the maintained floor exact and small: every in-flight
    op has its heap entry, nothing in flight is older than the scan
    bound, and entries of ops long gone cannot pile up."""
    pending = checker._pending
    entries = checker._invocations
    assert {(at, op) for op, at in pending.items()} <= set(entries)
    assert all(
        entries[i] >= entries[(i - 1) // 2] for i in range(1, len(entries))
    )
    assert len(entries) <= len(pending) + checker.overrun_ops + 1
    assert all(op >= checker._oldest_op_id for op in pending)


def waves(history, wave):
    """Cut ``history`` into waves: runs of begins or of completions, cut
    every ``wave`` steps — or, ``wave`` a ``Random``, every 1–16 steps
    it draws."""
    cut = []
    for step in history:
        if cut and (step[0] != cut[0][0] or len(cut) == size):
            yield cut
            cut = []
        if not cut:
            size = wave if isinstance(wave, int) else wave.randint(1, 16)
        cut.append(step)
    if cut:
        yield cut


def replay(history, shipped=OnlineChecker, overrun_ops=None, sweep_every=7,
           wave=1, seen=None):
    """Feed ``history`` (the step format of ``test_checker_oracle``),
    cut into :func:`waves`, to ``shipped`` a wave a call and to the
    reference a record a call, and compare their whole state after
    every wave, then the reports.  A short sweep period samples
    ``max_retained`` mid-feed.  ``seen`` collects what the waves
    straddled: a sweep, or an overrun eviction, before their last
    element."""
    options = {} if overrun_ops is None else {"overrun_ops": overrun_ops}
    reference = ReferenceScanningChecker(**options)
    candidate = shipped(**options)
    reference.SWEEP_EVERY = candidate.SWEEP_EVERY = sweep_every
    records, begun, fed = {}, 0, []

    def play(checker, cut):
        """The reference first: it makes the wave's records, which the
        shipped checker then takes in one call."""
        nonlocal begun, fed
        if checker is candidate:
            if cut[0][0] == "begin":
                candidate.on_begin(fed)
            else:
                candidate.on_complete(fed)
            if shipped is OnlineChecker:    # a mutant dies of what it reports
                assert_heap_is_bounded(candidate)
            return
        fed = []
        for step in cut:
            if step[0] == "begin":
                _, op, kind, process, time, value, key = step
                record = records[op] = OperationRecord(
                    begun, kind, process, time, value, key=key
                )
                begun += 1
                reference.on_begin(record)
            else:
                _, op, time, result, stamp = step
                record = records.pop(op)
                record.completed_at, record.result = time, result
                if stamp is not None:
                    record.meta["ts"] = stamp
                evicted = len(reference._overrun)
                reference.on_complete(record)
                if seen is not None and len(fed) < len(cut) - 1:
                    if reference._since_sweep == 0:
                        seen.add("sweep-inside-a-wave")
                    if len(reference._overrun) > evicted:
                        seen.add("eviction-inside-a-wave")
            fed.append(record)

    agree(reference, candidate, waves(history, wave), play, state_of)
    agree(reference, candidate, ["report"],
          lambda checker, _: {"report": checker.report(), **state_of(checker)})
    return candidate


# -- generated feeds ---------------------------------------------------------------

@settings(DIFFERENTIAL, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes, st.randoms(use_true_random=False))
def test_client_consistent_histories_agree_with_both_references(shape, rng):
    """One drawn history, to both of the checker's references: the
    value-ordered checker after every completion, the scanning window
    after every wave."""
    history = build_history(**shape)
    overrun_ops = STUCK_OVERRUN if shape["stuck"] else None
    value_ordered_replay(history, overrun_ops=overrun_ops)
    replay(history, overrun_ops=overrun_ops, wave=rng)


feed_steps = st.tuples(
    st.sampled_from(("tick", "begin", "begin", "end", "end", "stick")),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(0, 15),
)
feeds = st.fixed_dictionaries({
    "n_keys": st.integers(1, 3),
    "steps": st.lists(feed_steps, min_size=20, max_size=120),
})


def build_feed(n_keys, steps):
    """Interpret drawn steps as a feed no client would produce but a
    ``Trace`` accepts.  A *begin* opens a batch of 1–16 reads or writes
    sharing one invocation time up to two ticks behind or one ahead of
    the clock (so begin times are not monotone — completions are, like
    the simulator's); an *end* completes one open batch, forwards or
    backwards, with results an adversary picks; a *stick* leaves a
    batch open until the feed ends (or for good)."""
    history = []
    begun = 0                        # == the op id the Trace assigns next
    now = 0.0
    serial = 0
    stamp_of = [0] * n_keys
    done = [[] for _ in range(n_keys)]    # completed (value, stamp) per key
    open_batches = []                # [[(op, kind, key, value, stamp), ...]]
    stuck = []

    def finish(batch, choice, backwards):
        for op, kind, key, value, stamp in (
            reversed(batch) if backwards else batch
        ):
            if kind == "write":
                # Mostly its own stamp; sometimes none, or a reused one.
                if choice == 14:
                    stamp = None
                elif choice == 15 and done[key]:
                    stamp = done[key][-1][1]
                history.append(("end", op, now, "OK", stamp))
                if stamp is not None:
                    done[key].append((value, stamp))
                continue
            in_flight = [
                (v, s) for other in open_batches + stuck
                for _, k, key_, v, s in other if k == "write" and key_ == key
            ]
            if choice in (9, 10) and in_flight:
                result, stamp = in_flight[choice % len(in_flight)]
            elif choice == 13:
                result = stamp = 10 ** 6 + op        # nothing wrote it
            elif choice == 14 and done[key]:
                result, stamp = done[key][-1][0], None   # no stamp
            elif choice == 15 or not done[key]:
                result, stamp = BOTTOM, None
            elif choice in (11, 12):
                result, stamp = done[key][(choice * 7 + op) % len(done[key])]
            else:
                result, stamp = done[key][-1]
            history.append(("end", op, now, result, stamp))

    for action, a, b, c in steps:
        if action == "tick":
            now += 0.5 * (1 + a % 3)
        elif action == "begin":
            kind = "write" if a % 3 == 0 else "read"
            size = 1 + b if a >= 8 else 1 + b % 3
            invoked_at = now + 0.5 * (c % 4 - 2)
            batch = []
            for offset in range(size):
                key = (c + offset) % n_keys
                value = stamp = None
                if kind == "write":
                    serial += 1
                    stamp_of[key] += 1
                    value, stamp = serial, stamp_of[key]
                history.append((
                    "begin", begun, kind, f"client{a % 5}", invoked_at,
                    value, key,
                ))
                batch.append((begun, kind, key, value, stamp))
                begun += 1
            open_batches.append(batch)
        elif not open_batches:
            continue
        elif action == "stick":
            stuck.append(open_batches.pop(a % len(open_batches)))
        else:
            finish(open_batches.pop(a % len(open_batches)), c, b % 2 == 1)
    while open_batches:
        now += 0.5
        finish(open_batches.pop(0), 0, False)
    # Every other stuck batch completes at last, with an ancient view.
    for batch in stuck[::2]:
        now += 0.5
        finish(batch, 12, False)
    return history


@settings(DIFFERENTIAL, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(feeds, st.sampled_from((None, 40, 12, 5)),
       st.randoms(use_true_random=False))
def test_free_form_feeds_leave_identical_state(feed, overrun_ops, rng):
    replay(build_feed(**feed), overrun_ops=overrun_ops, wave=rng)


def test_the_feed_generator_reaches_what_it_is_for():
    """Out-of-time-order begins, full batches, evictions, late
    completions of evicted ops, and waves with a sweep or an eviction
    before their last element all occur in a fixed sample of feeds."""
    rng = random.Random(20)
    seen = set()
    for _ in range(60):
        steps = [
            (rng.choice(("tick", "begin", "begin", "end", "end", "stick")),
             rng.randrange(16), rng.randrange(16), rng.randrange(16))
            for _ in range(80)
        ]
        history = build_feed(2, steps)
        begins = [step for step in history if step[0] == "begin"]
        times = [step[4] for step in begins]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            seen.add("begin-out-of-time-order")
        if max(times.count(time) for time in times) >= 16:
            seen.add("batch-of-16")
        checker = replay(history, overrun_ops=12, wave=rng, seen=seen)
        if checker.overrun_unchecked:
            seen.add("evicted-op-completed")
        if checker._overrun:
            seen.add("evicted-op-still-open")
    assert seen == {
        "begin-out-of-time-order", "batch-of-16", "evicted-op-completed",
        "evicted-op-still-open", "sweep-inside-a-wave",
        "eviction-inside-a-wave",
    }


# -- scripted feeds (each the input that kills a mutant) -----------------------

#: name -> (feed, overrun_ops, wave size)
SCRIPTS = {
    # The write is registered at 2.0, *then* a read that started at 0.0:
    # the floor is the later begin's earlier time.
    "a-late-begin-with-an-earlier-time": ([
        *write("w0", 1, 0.0, 0.25),
        ("begin", "w", "write", "writer", 2.0, 2, 0),
        ("begin", "r", "read", "reader", 0.5, None, 0),
        *read("r2", 1, 0.5, 1.0, process="r2"),
        ("end", "r", 1.5, 1, 1),
        ("end", "w", 3.0, "OK", 2),
    ], None, 1),
    # The oldest op completes while a younger one is still in flight:
    # its heap entry is stale and must not stay the floor.
    "the-oldest-op-completes-first": ([
        ("begin", "old", "read", "r0", 0.0, None, 0),
        ("begin", "young", "read", "r1", 1.0, None, 0),
        *write("w1", 1, 1.5, 2.0),
        ("end", "old", 2.5, 1, 1),
        *write("w2", 2, 3.0, 3.5),
        ("end", "young", 4.0, 2, 2),
    ], None, 1),
    # One crashed reader is evicted, the run goes on, a second one
    # stalls: the eviction walk has to run again.
    "two-readers-stuck-one-after-the-other": ([
        ("begin", "stuck1", "read", "crashed1", 0.0, None, 0),
        *churn(6, start=0.0),
        ("begin", "stuck2", "read", "crashed2", 20.0, None, 0),
        *churn(8, start=20.0, first=7),
        ("end", "stuck1", 60.0, 1, 1),
        ("end", "stuck2", 61.0, 7, 7),
    ], 4, 1),
    # A write pins the floor at 5.0 while reads that began (late) at
    # earlier times complete below it: the second one is appended to a
    # key already pruned at this very floor and must be folded too.
    "appended-below-an-unchanged-floor": ([
        *write("w1", 1, 0.0, 0.2), *write("w2", 2, 0.3, 0.4),
        ("begin", "pin", "write", "writer", 5.0, 3, 0),
        *read("y", 1, 0.5, 0.7, process="r1"),
        *read("x", 2, 1.0, 2.0, process="r2"),
        *read("z", 1, 2.5, 3.0, process="r3"),
        ("end", "pin", 6.0, "OK", 3),
    ], None, 1),
    # Ten reads begin as one wave and complete as one: the sweep is due
    # after the seventh element, not after the wave.
    "a-wave-straddles-a-sweep": ([
        *(("begin", n, "read", f"r{n}", 0.0, None, 0) for n in range(10)),
        *(("end", n, 1.0, BOTTOM, None) for n in range(10)),
    ], None, 10),
    # One wave completes w, a and b: after a the floor is 2.0, past
    # the write at 1.2, which key 0 must fold before b completes.
    "the-floor-moves-inside-a-wave": ([
        ("begin", "w", "write", "writer", 0.0, 1, 0),
        ("begin", "a", "read", "ra", 1.0, None, 0),
        ("begin", "b", "read", "rb", 2.0, None, 1),
        ("end", "w", 1.2, "OK", 1),
        ("end", "a", 2.5, 1, 1),
        ("end", "b", 2.5, BOTTOM, None),
    ], None, 3),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scripted_feeds_leave_identical_state(name):
    history, overrun_ops, wave = SCRIPTS[name]
    replay(history, overrun_ops=overrun_ops, wave=wave)


def test_a_pinned_heap_stays_within_in_flight_plus_the_overrun_bound():
    """Begin times that go *down* hand the top of the heap from one
    stuck op to the next before the first is evicted; only the rebuild
    in the eviction walk keeps the heap from growing with the run."""
    history, at = [], 0.0
    for n in range(40):
        history.append(
            ("begin", f"stuck{n}", "read", f"crashed{n}", -1.0 - n, None, 0)
        )
        for m in range(6):
            at += 1.0
            history += read(f"r{n}.{m}", BOTTOM, at, at + 0.5)
    checker = replay(history, overrun_ops=8)
    assert len(checker._invocations) <= len(checker._pending) + 9


# -- seeded mutants of the shipped checker -------------------------------------

class FloorIgnoresLateEarlierBegin(OnlineChecker):
    """Takes begin order for time order: an op is filed no earlier than
    the newest invocation already in flight (what reading the floor off
    the first entry of the insertion-ordered ``_pending`` does)."""

    def on_begin(self, records):
        for record in records:
            super().on_begin((record,))
            entries = self._invocations
            entry, newest = (record.invoked_at, record.op_id), max(entries)
            if entry < newest:
                entries.remove(entry)
                entries.append((newest[0], record.op_id))
                heapify(entries)


class _NothingIsStale(dict):
    def __contains__(self, op_id):
        return True


class StaleHeapEntryPinsTheFloor(OnlineChecker):
    """Reads the floor off the top of the heap without dropping the
    entries of ops that already left the in-flight set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = _NothingIsStale()


class EvictionScanNeverReruns(OnlineChecker):
    """The first eviction walk is the last: its bound on the oldest
    in-flight op is never reached again."""

    def _evict_overrun(self):
        super()._evict_overrun()
        self._oldest_op_id = float("inf")


class PruneSkippedAfterAppend(_OverKeyState):
    """Keeps ``pruned_at`` when an entry lands below it: skips the
    per-key prune whenever the floor has not moved since that key's
    last one — forgetting what was appended under it in between."""

    class key_state(_KeyState):
        __slots__ = ("_at",)

        def _get(self):
            return getattr(self, "_at", None)

        def _set(self, floor):
            if floor is not None:
                self._at = floor

        pruned_at = property(_get, _set)


class SweepAtWaveEnd(OnlineChecker):
    """Counts a wave's completions toward the sweep but sweeps only
    after its last element."""

    def on_complete(self, records):
        self.SWEEP_EVERY, every = float("inf"), self.SWEEP_EVERY
        try:
            super().on_complete(records)
        finally:
            self.SWEEP_EVERY = every
        if self._since_sweep >= every:
            self._sweep()


class _InFlightWhileFrozen(dict):
    frozen = False

    def __contains__(self, op_id):
        return self.frozen or super().__contains__(op_id)


class FloorAndPruneOncePerWave(OnlineChecker):
    """Moves the window floor — and prunes to it — once per wave, after
    its last element: the elements before it see the floor the wave
    started with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = _InFlightWhileFrozen()

    def on_complete(self, records):
        self._pending.frozen = True
        try:
            super().on_complete(records[:-1])
        finally:
            self._pending.frozen = False
        super().on_complete(records[-1:])


#: mutant -> the scripted feed that kills it.
MUTANTS = {
    FloorIgnoresLateEarlierBegin: "a-late-begin-with-an-earlier-time",
    StaleHeapEntryPinsTheFloor: "the-oldest-op-completes-first",
    EvictionScanNeverReruns: "two-readers-stuck-one-after-the-other",
    PruneSkippedAfterAppend: "appended-below-an-unchanged-floor",
    SweepAtWaveEnd: "a-wave-straddles-a-sweep",
    FloorAndPruneOncePerWave: "the-floor-moves-inside-a-wave",
}


@each_mutant(MUTANTS)
def test_seeded_checker_mutants_are_killed(mutant):
    history, overrun_ops, wave = SCRIPTS[MUTANTS[mutant]]
    assert_killed(
        lambda shipped: replay(history, shipped, overrun_ops, wave=wave),
        OnlineChecker, mutant,
    )


# -- the reference accumulator: a Fraction per operation, verbatim -------------

class ReferenceReservoir(QuantileReservoir):
    __slots__ = ()

    def observe(self, sample: float) -> None:
        self.seen += 1
        self._sorted = None
        if len(self._samples) < self.capacity:
            self._samples.append(sample)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._samples[slot] = sample


class ReferenceFractionAccumulator(LatencyAccumulator):
    """The parent's accumulator: ``time_sum`` is a plain attribute, a
    running ``Fraction`` (everything that reads it — ``mean_time``,
    ``merge``, ``LatencySummary`` — is inherited and so shared)."""

    time_sum = Fraction(0)     # shadows the property: a per-instance slot

    def __init__(self, kind, capacity):
        super().__init__(kind, capacity)
        self.time_sum = Fraction(0)
        self.reservoir = ReferenceReservoir(capacity)

    def observe(self, rounds: int, elapsed: float) -> None:
        """Fold one completed operation into the summary."""
        self.count += 1
        self.rounds_sum += rounds
        if self.min_rounds is None or rounds < self.min_rounds:
            self.min_rounds = rounds
        if self.max_rounds is None or rounds > self.max_rounds:
            self.max_rounds = rounds
        self.time_sum += Fraction(elapsed)
        if self.min_time is None or elapsed < self.min_time:
            self.min_time = elapsed
        if self.max_time is None or elapsed > self.max_time:
            self.max_time = elapsed
        self.reservoir.observe(elapsed)


def summary_of(accumulator):
    return {
        "count": accumulator.count,
        "rounds": (accumulator.rounds_sum, accumulator.min_rounds,
                   accumulator.max_rounds, accumulator.mean_rounds),
        "time_sum": accumulator.time_sum,
        "mean_time": accumulator.mean_time,
        "times": (accumulator.min_time, accumulator.max_time),
        "seen": accumulator.reservoir.seen,
        "samples": list(accumulator.reservoir._samples),
        "rng": accumulator.reservoir._rng.getstate(),
        "summary": LatencySummary.from_accumulator(accumulator),
    }


def observe_all(stream, capacity, shipped=LatencyAccumulator):
    """Feed ``stream`` of ``(rounds, elapsed, count)`` waves to
    ``shipped`` a wave a call and to the reference a sample a call,
    comparing everything after every wave; returns the shipped
    accumulator."""
    def observe(accumulator, wave):
        rounds, elapsed, count = wave
        if isinstance(accumulator, ReferenceFractionAccumulator):
            for _ in range(count):
                accumulator.observe(rounds, elapsed)
        else:
            accumulator.observe(rounds, elapsed, count)

    def summary(accumulator):
        # ``==`` would let 1/2 pass for 0.5: the sum is a Fraction.
        return {**summary_of(accumulator),
                "time_sum type": type(accumulator.time_sum)}

    return agree(ReferenceFractionAccumulator("op", capacity),
                 shipped("op", capacity), stream, observe, summary)[1]


elapsed_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=16),
    st.integers(0, 1000),
    st.fractions(min_value=0, max_value=100, max_denominator=60),
)
#: Waves of one, mostly, and of up to 16 identical samples.
streams = st.lists(
    st.tuples(
        st.integers(1, 4), elapsed_values,
        st.one_of(st.just(1), st.integers(1, 16)),
    ),
    min_size=1, max_size=70,
)


@settings(DIFFERENTIAL, max_examples=300)
@given(streams, st.sampled_from((1, 4, 16)))
def test_integer_sum_is_the_fraction_sum(stream, capacity):
    """Streams several times the reservoir's capacity, in waves that
    fill it and run past it, mixing the three numeric types
    ``elapsed`` can arrive as."""
    observe_all(stream, capacity)


@settings(DIFFERENTIAL, max_examples=200)
@given(streams, st.lists(st.integers(0, 70), max_size=4), st.randoms())
def test_merge_of_any_split_is_the_whole(stream, cuts, rng):
    # Every part and the union fit.
    capacity = max(128, sum(count for _, _, count in stream))
    whole = observe_all(stream, capacity)
    bounds = sorted({0, len(stream), *(min(c, len(stream)) for c in cuts)})
    parts = []
    for start, end in zip(bounds, bounds[1:]):
        part = LatencyAccumulator("op", capacity)
        for rounds, elapsed, count in stream[start:end]:
            part.observe(rounds, elapsed, count)
        parts.append(part)
    rng.shuffle(parts)
    merged = LatencyAccumulator.merge(parts)
    assert merged.time_sum == whole.time_sum
    assert type(merged.time_sum) is Fraction
    assert (
        LatencySummary.from_accumulator(merged)
        == LatencySummary.from_accumulator(whole)
    )
    assert merged.reservoir._samples == sorted(whole.reservoir._samples)
    # A merge of merges is still exact.
    again = LatencyAccumulator.merge(
        [merged, LatencyAccumulator("op", capacity)]
    )
    assert again.time_sum == whole.time_sum


# -- seeded mutants of the shipped accumulator ---------------------------------

class SumDropsLowBits(LatencyAccumulator):
    """Keeps the running sum as a ``float`` (``total += elapsed``)."""

    def observe(self, rounds, elapsed, count):
        total = float(self.time_sum)
        super().observe(rounds, elapsed, count)
        self._time_units, self._time_scale = (
            float(total + elapsed * count).as_integer_ratio()
        )


class TimeSumOncePerWave(LatencyAccumulator):
    """Adds a wave's elapsed time to the exact sum once, not once per
    sample."""

    def observe(self, rounds, elapsed, count):
        super().observe(rounds, elapsed, count)
        self._time_units, self._time_scale = (
            self.time_sum - Fraction(elapsed) * (count - 1)
        ).as_integer_ratio()


class SlotFromRandomRandom(LatencyAccumulator):
    """Draws the reservoir slot from ``random()`` — as uniform as
    ``getrandbits`` rejection, but another stream of the RNG."""

    class reservoir_type(QuantileReservoir):
        __slots__ = ()

        def observe(self, sample, count):
            for _ in range(count):
                if len(self._samples) < self.capacity:
                    super().observe(sample, 1)
                    continue
                self.seen += 1
                self._sorted = None
                slot = int(self._rng.random() * self.seen)
                if slot < self.capacity:
                    self._samples[slot] = sample

    def __init__(self, kind, capacity):
        super().__init__(kind, capacity)
        self.reservoir = self.reservoir_type(capacity)


class ReservoirDrawsOncePerWave(SlotFromRandomRandom):
    """Fills the reservoir sample by sample, but past capacity draws
    one slot for a whole wave."""

    class reservoir_type(QuantileReservoir):
        __slots__ = ()

        def observe(self, sample, count):
            fill = max(0, min(count, self.capacity - self.seen))
            if fill:
                super().observe(sample, fill)
            if count > fill:
                super().observe(sample, 1)
                self.seen += count - fill - 1


#: name -> (stream of (rounds, elapsed, count) waves, reservoir capacity)
STREAMS = {
    # Ten times the double nearest 0.1 is not the double nearest 1.0.
    "ten-tenths": ([(1, 0.1, 1)] * 10, 16),
    "twice-the-reservoir": ([(1, float(n), 1) for n in range(16)], 8),
    "one-wave-of-four": ([(2, 0.5, 4)], 16),
    "waves-past-the-reservoir": ([(1, float(n), 4) for n in range(6)], 8),
}

ACCUMULATOR_MUTANTS = {
    SumDropsLowBits: "ten-tenths",
    SlotFromRandomRandom: "twice-the-reservoir",
    TimeSumOncePerWave: "one-wave-of-four",
    ReservoirDrawsOncePerWave: "waves-past-the-reservoir",
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_named_streams_agree(name):
    observe_all(*STREAMS[name])


@each_mutant(ACCUMULATOR_MUTANTS)
def test_seeded_accumulator_mutants_are_killed(mutant):
    stream, capacity = STREAMS[ACCUMULATOR_MUTANTS[mutant]]
    assert_killed(partial(observe_all, stream, capacity),
                  LatencyAccumulator, mutant)
