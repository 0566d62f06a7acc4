"""Units for the streaming analysis layer: accumulators, reservoir,
and the windowed online checker."""

import random
from fractions import Fraction
from statistics import mean
from typing import Iterable

import pytest

from repro.analysis.latency import LatencySummary
from repro.analysis.streaming import (
    RESERVOIR_CAPACITY,
    LatencyAccumulator,
    OnlineChecker,
    QuantileReservoir,
    check_history,
    nearest_rank,
)
from repro.sim.trace import OperationRecord, Trace
from repro.storage.history import BOTTOM


# The list-based summary FULL runs used before they replayed their
# records through an accumulator — verbatim, the reference of the
# equality pins below.
def summarize_rounds(
    records: Iterable[OperationRecord], kind: str
) -> LatencySummary:
    """Aggregate the self-reported round counts of completed operations."""
    done = [r for r in records if r.kind == kind and r.complete]
    if not done:
        return LatencySummary(kind, 0, None, None, None, None, None)
    rounds = [r.rounds for r in done]
    times = sorted(r.completed_at - r.invoked_at for r in done)
    # Exact rational mean, like the streaming accumulator's running sum,
    # so the two paths cannot drift by float-summation order.
    mean_time = float(sum(map(Fraction, times)) / len(times))
    return LatencySummary(
        kind=kind,
        count=len(done),
        min_rounds=min(rounds),
        max_rounds=max(rounds),
        mean_rounds=round(mean(rounds), 3),
        min_time=times[0],
        max_time=times[-1],
        mean_time=round(mean_time, 6),
        p50_time=nearest_rank(times, 0.50),
        p99_time=nearest_rank(times, 0.99),
    )


# -- quantiles & accumulators --------------------------------------------------

class TestQuantileReservoir:
    def test_exact_below_capacity(self):
        reservoir = QuantileReservoir(capacity=16)
        for sample in (5.0, 1.0, 3.0, 2.0, 4.0):
            reservoir.observe(sample, 1)
        assert reservoir.exact
        assert reservoir.quantile(0.5) == 3.0
        assert reservoir.quantile(0.99) == 5.0

    def test_bounded_and_deterministic_above_capacity(self):
        def fill():
            reservoir = QuantileReservoir(capacity=64)
            rng = random.Random(3)
            for _ in range(5000):
                reservoir.observe(rng.uniform(0.0, 100.0), 1)
            return reservoir

        first, second = fill(), fill()
        assert not first.exact
        assert len(first._samples) == 64
        assert first.quantile(0.5) == second.quantile(0.5)
        # A 64-sample estimate of U(0, 100)'s median lands mid-range.
        assert 20.0 < first.quantile(0.5) < 80.0

    def test_nearest_rank_edges(self):
        assert nearest_rank([], 0.5) is None
        assert nearest_rank([7.0], 0.5) == 7.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


class TestQuantileReservoirMerge:
    def _parts(self, sizes, capacity=32, seed=1):
        rng = random.Random(seed)
        parts = []
        for size in sizes:
            reservoir = QuantileReservoir(capacity=capacity)
            for _ in range(size):
                reservoir.observe(rng.uniform(0.0, 100.0), 1)
            parts.append(reservoir)
        return parts

    def test_exact_below_combined_capacity(self):
        parts = self._parts([5, 7, 4])
        merged = QuantileReservoir.merge(parts)
        assert merged.seen == 16
        assert merged.exact
        combined = sorted(
            value for part in parts for value in part._samples
        )
        assert merged._samples == combined

    def test_order_independent(self):
        """Satellite: identical merged state for every part ordering —
        shard completion order must never leak into the result."""
        parts = self._parts([500, 90, 7, 260], capacity=64)
        baseline = QuantileReservoir.merge(parts)
        for _ in range(10):
            shuffled = parts[:]
            random.Random(_).shuffle(shuffled)
            merged = QuantileReservoir.merge(shuffled)
            assert merged._samples == baseline._samples
            assert merged.seen == baseline.seen

    def test_bounded_above_capacity(self):
        parts = self._parts([300, 300], capacity=64)
        merged = QuantileReservoir.merge(parts)
        assert merged.seen == 600
        assert len(merged._samples) == 64
        assert 20.0 < merged.quantile(0.5) < 80.0

    def test_empty_parts_need_capacity(self):
        with pytest.raises(ValueError):
            QuantileReservoir.merge([])
        merged = QuantileReservoir.merge([], capacity=8)
        assert merged.seen == 0


class TestLatencyAccumulatorMerge:
    def _split_streams(self, chunks, seed=5):
        """One accumulator per chunk plus the whole-stream reference."""
        rng = random.Random(seed)
        whole = LatencyAccumulator("read")
        parts = []
        for size in chunks:
            part = LatencyAccumulator("read")
            for _ in range(size):
                rounds = rng.randint(1, 4)
                elapsed = rng.uniform(0.25, 8.0)
                whole.observe(rounds, elapsed, 1)
                part.observe(rounds, elapsed, 1)
            parts.append(part)
        return whole, parts

    def test_merge_equals_whole_stream_exactly(self):
        whole, parts = self._split_streams([40, 25, 35])
        merged = LatencyAccumulator.merge(parts)
        assert merged.count == whole.count
        assert merged.time_sum == whole.time_sum  # Fraction-exact
        assert merged.rounds_sum == whole.rounds_sum
        assert merged.min_time == whole.min_time
        assert merged.max_time == whole.max_time
        assert (
            LatencySummary.from_accumulator(merged)
            == LatencySummary.from_accumulator(whole)
        )

    def test_order_independent(self):
        _, parts = self._split_streams([90, 12, 300, 44])
        baseline = LatencyAccumulator.merge(parts)
        for attempt in range(10):
            shuffled = parts[:]
            random.Random(attempt).shuffle(shuffled)
            merged = LatencyAccumulator.merge(shuffled)
            assert merged.time_sum == baseline.time_sum
            assert merged.reservoir._samples == baseline.reservoir._samples
            assert (
                LatencySummary.from_accumulator(merged)
                == LatencySummary.from_accumulator(baseline)
            )

    def test_empty_parts_tolerated(self):
        whole, parts = self._split_streams([20, 0, 15])
        merged = LatencyAccumulator.merge(parts)
        assert merged.count == whole.count
        assert merged.min_rounds == whole.min_rounds

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kinds"):
            LatencyAccumulator.merge(
                [LatencyAccumulator("read"), LatencyAccumulator("write")]
            )
        merged = LatencyAccumulator.merge(
            [LatencyAccumulator("read"), LatencyAccumulator("write")],
            kind="op",
        )
        assert merged.kind == "op"

    def test_no_parts_rejected(self):
        with pytest.raises(ValueError):
            LatencyAccumulator.merge([])

    def test_merged_summary_refuses_further_samples(self):
        """A merged reservoir is a weighted subsample, not a prefix of a
        stream: observing into it used to skew every later quantile
        silently.  It raises, and leaves the summary as it was."""
        whole, parts = self._split_streams([3000, 2500])
        merged = LatencyAccumulator.merge(parts)
        before = LatencySummary.from_accumulator(merged)
        with pytest.raises(ValueError, match="terminal"):
            merged.observe(1, 2.0, 1)
        with pytest.raises(ValueError, match="terminal"):
            merged.reservoir.observe(2.0, 1)
        with pytest.raises(ValueError, match="terminal"):
            QuantileReservoir.merge([], capacity=8).observe(2.0, 1)
        assert LatencySummary.from_accumulator(merged) == before
        assert merged.count == whole.count == 5500
        # The parts stay live: observe there and merge again.
        parts[0].observe(1, 2.0, 1)
        assert LatencyAccumulator.merge(parts).count == 5501


class TestLatencyAccumulator:
    def test_matches_list_based_summary_exactly(self):
        trace = Trace()
        accumulator = LatencyAccumulator("read")
        rng = random.Random(11)
        for index in range(300):
            invoked = rng.uniform(0.0, 500.0)
            elapsed = rng.uniform(0.5, 9.0)
            rounds = rng.randint(1, 3)
            record, = trace.begin("read", "r", invoked, ((None, 0),))
            trace.complete((record,), invoked + elapsed, ("v",), rounds)
            accumulator.observe(rounds, (invoked + elapsed) - invoked, 1)
        assert (
            LatencySummary.from_accumulator(accumulator)
            == summarize_rounds(trace.records, "read")
        )

    def test_empty_matches_empty(self):
        assert (
            LatencySummary.from_accumulator(None, "write")
            == LatencySummary.from_records([], "write")
            == summarize_rounds([], "write")
        )

    def test_replayed_records_match_the_list_based_summary(self):
        """A FULL run's summary replays its records through a fresh
        accumulator that holds them all: exact past the default
        reservoir capacity, where a live accumulator would sample."""
        trace = Trace()
        rng = random.Random(5)
        for index in range(RESERVOIR_CAPACITY + 500):
            invoked = rng.uniform(0.0, 500.0)
            record, = trace.begin("write", "w", invoked, ((None, 0),))
            trace.complete(
                (record,), invoked + rng.uniform(0.5, 9.0), ("OK",),
                rng.randint(1, 3),
            )
        trace.begin("write", "w", 600.0, ((None, 0),))   # incomplete
        assert (
            LatencySummary.from_records(trace.records, "write")
            == summarize_rounds(trace.records, "write")
        )


# -- the windowed online checker -----------------------------------------------

def _checker_on(trace: Trace) -> OnlineChecker:
    checker = OnlineChecker()
    trace.subscribe(
        on_begin=checker.on_begin, on_complete=checker.on_complete
    )
    return checker


def _stamped(record, value):
    """A single writer's values are their own stamps in these histories
    (integers, written in increasing order per key)."""
    if value is not BOTTOM:
        record.meta["ts"] = value


def _write(trace, value, start, end, key=0):
    record, = trace.begin("write", "writer", start, ((value, key),))
    _stamped(record, value)
    trace.complete((record,), end, ("OK",), 1)


def _read(trace, result, start, end, key=0, process="reader"):
    record, = trace.begin("read", process, start, ((None, key),))
    _stamped(record, result)
    trace.complete((record,), end, (result,), 1)


class TestOnlineChecker:
    def test_clean_history_is_atomic(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _read(trace, BOTTOM, 0.0, 1.0)
        _write(trace, 1, 1.5, 2.5)
        _read(trace, 1, 3.0, 4.0)
        _write(trace, 2, 4.5, 5.5)
        _read(trace, 2, 6.0, 7.0)
        report = checker.report()
        assert report.atomic
        assert report.checked_writes == 2 and report.checked_reads == 3

    def test_stale_read_is_flagged(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _write(trace, 1, 0.0, 1.0)
        _write(trace, 2, 2.0, 3.0)
        _read(trace, 1, 4.0, 5.0)     # write 2 completed before it began
        report = checker.report()
        assert not report.atomic
        assert report.violations[0].rule == "stale-read"

    def test_bottom_after_write_is_stale(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _write(trace, 1, 0.0, 1.0)
        _read(trace, BOTTOM, 2.0, 3.0)
        report = checker.report()
        assert [v.rule for v in report.violations] == ["stale-read"]

    def test_fabricated_value_is_flagged(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _write(trace, 1, 0.0, 1.0)
        _read(trace, 99, 2.0, 3.0)    # never written
        report = checker.report()
        assert [v.rule for v in report.violations] == ["fabrication"]

    def test_future_read_is_flagged(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        # The write is invoked at 2.0 (registered at begin); a read that
        # completed at 1.0 already returned its value.
        wrecord, = trace.begin("write", "writer", 2.0, ((1, 0),))
        _stamped(wrecord, 1)
        _read(trace, 1, 0.0, 1.0)
        trace.complete((wrecord,), 3.0, ("OK",), 1)
        report = checker.report()
        assert "future-read" in {v.rule for v in report.violations}

    def test_value_written_after_read_completed_is_fabrication(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _read(trace, 1, 0.0, 1.0)     # value 1 does not exist yet
        _write(trace, 1, 2.0, 3.0)
        report = checker.report()
        assert "fabrication" in {v.rule for v in report.violations}

    def test_read_inversion_is_flagged(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _write(trace, 1, 0.0, 1.0)
        # Write 2 is still in flight while both reads run: no stale rule
        # applies, but the second read regresses behind the first.
        record, = trace.begin("write", "writer", 2.0, ((2, 0),))
        _stamped(record, 2)
        _read(trace, 2, 3.0, 4.0, process="r1")
        _read(trace, 1, 5.0, 6.0, process="r2")
        trace.complete((record,), 7.0, ("OK",), 1)
        report = checker.report()
        assert "read-inversion" in {v.rule for v in report.violations}

    def test_writer_order_violation(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _write(trace, 5, 0.0, 1.0)
        _write(trace, 3, 2.0, 3.0)    # non-monotone per-key value
        report = checker.report()
        assert [v.rule for v in report.violations] == ["writer-order"]

    def test_per_key_independence(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        _write(trace, 1, 0.0, 1.0, key="a")
        _write(trace, 2, 0.5, 1.5, key="b")
        _read(trace, 1, 2.0, 3.0, key="a")
        _read(trace, 2, 2.0, 3.0, key="b")
        report = checker.report()
        assert report.atomic
        assert report.keys == ("a", "b")

    def test_retained_state_is_bounded_on_long_histories(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        time = 0.0
        value = 0
        for _ in range(5000):
            value += 1
            _write(trace, value, time, time + 1.0, key=value % 8)
            _read(trace, value, time + 1.5, time + 2.0, key=value % 8)
            time += 2.0
        report = checker.report()
        assert report.atomic
        assert report.checked_ops == 10000
        # Sequential clients keep the window tiny; the bound is what
        # makes million-op soaks O(clients + keys).
        assert report.max_retained < 64

    def test_stuck_op_cannot_pin_the_window(self):
        """An op that never completes (crashed client) must not freeze
        the window floor and regrow O(ops) state — it is evicted after
        the overrun bound, and skipped (not misjudged) if it ever
        completes."""
        trace = Trace(retain=False)
        checker = OnlineChecker(overrun_ops=500)
        trace.subscribe(
            on_begin=checker.on_begin, on_complete=checker.on_complete
        )
        stuck, = trace.begin("read", "crashed", 0.0, ((None, 0),))
        time, value, heap_high_water = 1.0, 0, 0
        for _ in range(5000):
            value += 1
            _write(trace, value, time, time + 1.0, key=value % 4)
            _read(trace, value, time + 1.5, time + 2.0, key=value % 4)
            time += 2.0
            heap_high_water = max(heap_high_water, len(checker._invocations))
        # While the stuck op is the floor the entries of completed ops
        # queue up behind it in the invocation heap — until it is
        # evicted, so never more than in-flight + overrun_ops of them.
        assert 400 < heap_high_water <= 1 + 500 + 1
        assert len(checker._invocations) == len(checker._pending) == 0
        report = checker.report()
        assert report.atomic
        assert report.max_retained < 1200   # bounded despite the stuck op
        # The stuck op finally completes with an ancient view: it is
        # skipped, visibly, instead of being judged on pruned bounds.
        _stamped(stuck, 1)
        trace.complete((stuck,), time, (1,), 1)
        report = checker.report()
        assert report.atomic
        assert report.overrun_unchecked == 1

    def test_replay_judges_what_the_live_window_skips(self):
        """The same stuck-op history, retained and replayed: the replay
        evicts nothing, so the op a live window skipped is judged and
        nothing is left unchecked."""
        trace = Trace()
        stuck, = trace.begin("read", "crashed", 0.0, ((None, 0),))
        time, value = 1.0, 0
        for _ in range(OnlineChecker.OVERRUN_OPS):
            value += 1
            _write(trace, value, time, time + 1.0, key=value % 4)
            _read(trace, value, time + 1.5, time + 2.0, key=value % 4)
            time += 2.0
        # Value 4 is key 0's first write, concurrent with the stuck read.
        _stamped(stuck, 4)
        trace.complete((stuck,), time, (4,), 1)
        live = OnlineChecker()
        for record in trace.records:
            live.on_begin((record,))
            if record is not stuck:
                live.on_complete((record,))
        live.on_complete((stuck,))
        assert live.report().overrun_unchecked == 1
        report = check_history(trace.records)
        assert report.atomic and report.overrun_unchecked == 0
        assert report.checked_ops == len(trace.records)

    def test_old_value_beyond_window_is_still_caught(self):
        trace = Trace(retain=False)
        checker = _checker_on(trace)
        time = 0.0
        for value in range(1, 200):
            _write(trace, value, time, time + 1.0)
            time += 1.0
        _read(trace, 3, time, time + 1.0)   # ancient, long pruned
        report = checker.report()
        assert not report.atomic
        assert report.violations[0].rule == "stale-read"
