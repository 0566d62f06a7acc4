"""Adversarial multi-writer traces against the stamp-ordered checker.

Each test hand-builds :class:`~repro.sim.trace.OperationRecord` streams
and drives them through :class:`OnlineChecker.on_begin` /
``on_complete`` directly — no simulator — so every rule can be hit with
a history no correct protocol would produce: read inversion across
writers, stale reads past a newer acked stamp, fabricated stamps,
stamp reuse and order violations, and a stale read whose superseded
write has already been folded out of the window (the bound, not the
window entry, must catch it).  The clean-history and parked-read tests
pin the complementary soundness half: legal concurrency — including a
read returning a still-in-flight write — must not be flagged.
"""

from repro.analysis.streaming import OnlineChecker
from repro.sim.trace import OperationRecord
from repro.storage.history import BOTTOM, make_stamp


class Driver:
    """Feeds hand-built records to a checker in completion order."""

    def __init__(self, checker=None):
        self.checker = checker or OnlineChecker(mode="mw")
        self._next_id = 0

    def _begin(self, kind, process, at, value=None, key=0):
        record = OperationRecord(
            op_id=self._next_id, kind=kind, process=process,
            invoked_at=at, value=value, key=key,
        )
        self._next_id += 1
        self.checker.on_begin((record,))
        return record

    def begin_write(self, process, at, value, key=0):
        return self._begin("write", process, at, value, key=key)

    def begin_read(self, process, at, key=0):
        return self._begin("read", process, at, key=key)

    def finish_write(self, record, at, stamp):
        record.completed_at = at
        record.result = "OK"
        if stamp is not None:
            record.meta["ts"] = stamp
        self.checker.on_complete((record,))

    def finish_read(self, record, at, result, stamp=None):
        record.completed_at = at
        record.result = result
        if stamp is not None:
            record.meta["ts"] = stamp
        self.checker.on_complete((record,))

    def write(self, process, invoked, completed, value, stamp, key=0):
        record = self.begin_write(process, invoked, value, key=key)
        self.finish_write(record, completed, stamp)
        return record

    def read(self, process, invoked, completed, result, stamp=None, key=0):
        record = self.begin_read(process, invoked, key=key)
        self.finish_read(record, completed, result, stamp=stamp)
        return record

    def rules(self):
        return [v.rule for v in self.checker.report().violations]


S = make_stamp  # S(seq, writer_id)


class TestCleanHistories:
    def test_interleaved_writers_with_monotone_stamps_are_atomic(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.write("w1", 3.0, 5.0, "b", S(2, 1))
        d.read("r1", 6.0, 8.0, "b", stamp=S(2, 1))
        d.write("w0", 6.0, 9.0, "c", S(3, 0))
        d.read("r2", 10.0, 12.0, "c", stamp=S(3, 0))
        report = d.checker.report()
        assert report.atomic
        assert report.mode == "mw"
        assert report.checked_writes == 3
        assert report.checked_reads == 2
        assert report.as_metrics()["checker_mode"] == "mw"

    def test_concurrent_writers_may_complete_in_either_stamp_order(self):
        # w1's write completes first but carries the higher stamp; w0's
        # overlapping write lands below it.  Legal: the writes were
        # concurrent, so stamp order need not follow completion order.
        d = Driver()
        d.write("w1", 0.0, 3.0, "b", S(1, 1))
        d.write("w0", 1.0, 5.0, "a", S(1, 0))
        assert d.checker.report().atomic

    def test_read_of_in_flight_write_parks_and_resolves_clean(self):
        d = Driver()
        pending = d.begin_write("w0", 0.0, "a")
        # The read returns the concurrent write's value with the stamp
        # the servers reported — legal if the write confirms it.
        d.read("r1", 1.0, 2.0, "a", stamp=S(1, 0))
        d.finish_write(pending, 3.0, S(1, 0))
        report = d.checker.report()
        assert report.atomic
        assert report.overrun_unchecked == 0


class TestAdversarialTraces:
    def test_read_inversion_across_writers(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.write("w1", 3.0, 5.0, "b", S(2, 1))
        d.read("r1", 6.0, 7.0, "b", stamp=S(2, 1))
        # Invoked after r1 completed, yet returns the older stamp.
        d.read("r2", 8.0, 9.0, "a", stamp=S(1, 0))
        assert "read-inversion" in d.rules()

    def test_stale_read_past_newer_acked_stamp(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.write("w1", 3.0, 5.0, "b", S(2, 1))
        # b's write completed (quorum-acked) before this read started.
        d.read("r1", 6.0, 8.0, "a", stamp=S(1, 0))
        assert d.rules() == ["stale-read"]

    def test_fabricated_stamp_unknown_to_any_write(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        # Stamp above every write — nothing ever produced it.
        d.read("r1", 3.0, 4.0, "zzz", stamp=S(9, 1))
        assert d.rules() == ["fabrication"]

    def test_fabricated_value_under_a_real_stamp(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.read("r1", 3.0, 4.0, "not-a", stamp=S(1, 0))
        assert d.rules() == ["fabrication"]

    def test_parked_read_with_wrong_claimed_stamp_is_fabrication(self):
        d = Driver()
        pending = d.begin_write("w0", 0.0, "a")
        d.read("r1", 1.0, 2.0, "a", stamp=S(7, 0))   # claimed
        d.finish_write(pending, 3.0, S(1, 0))        # actual
        assert "fabrication" in d.rules()

    def test_stamp_order_violation(self):
        d = Driver()
        d.write("w1", 0.0, 2.0, "b", S(5, 1))
        # Invoked after b's write completed, but stamps below it —
        # impossible when discovery quorums intersect write quorums.
        d.write("w0", 3.0, 5.0, "a", S(1, 0))
        assert d.rules() == ["stamp-order"]

    def test_stamp_reuse_across_writers(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.write("w1", 1.0, 3.0, "b", S(1, 0))
        assert d.rules() == ["stamp-reuse"]

    def test_future_read(self):
        d = Driver()
        d.write("w0", 10.0, 12.0, "a", S(1, 0))
        # Delivered to the checker late, but its interval ended before
        # the write was even invoked.
        d.read("r1", 0.0, 5.0, "a", stamp=S(1, 0))
        assert d.rules() == ["future-read"]

    def test_future_read_of_a_write_still_in_flight(self):
        d = Driver()
        # The write is registered (invoked at 2.0) but not complete when
        # a read that already ended at 1.0 returns its value: parked on
        # the in-flight value, it must still be held to the write's
        # invocation time.
        pending = d.begin_write("w0", 2.0, "a")
        d.read("r1", 0.0, 1.0, "a", stamp=S(1, 0))
        d.finish_write(pending, 3.0, S(1, 0))
        assert d.rules() == ["future-read"]

    def test_one_writers_stamps_increase_in_completion_order(self):
        d = Driver()
        # Two writes of one writer share an interval (as batch elements
        # do) and complete in the wrong order.  Nothing completed before
        # either was invoked, so stamp-order alone sees nothing.
        first = d.begin_write("w0", 0.0, "a")
        second = d.begin_write("w0", 0.0, "b")
        d.finish_write(second, 2.0, S(2, 0))
        d.finish_write(first, 2.0, S(1, 0))
        assert d.rules() == ["writer-order"]

    def test_a_forged_pair_does_not_move_the_read_bound(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.read("r1", 3.0, 4.0, "zzz", stamp=S(9, 1))
        # Judged once: the honest read after it is not an inversion.
        d.read("r2", 5.0, 6.0, "a", stamp=S(1, 0))
        assert d.rules() == ["fabrication"]

    def test_bottom_read_after_completed_write_is_stale(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", S(1, 0))
        d.read("r1", 3.0, 4.0, BOTTOM)
        assert d.rules() == ["stale-read"]

    def test_bottom_read_after_bottom_returning_read_is_clean(self):
        d = Driver()
        d.read("r1", 0.0, 1.0, BOTTOM)
        d.read("r2", 2.0, 3.0, BOTTOM)
        assert d.checker.report().atomic

    def test_missing_stamp_is_a_structured_violation(self):
        d = Driver()
        d.write("w0", 0.0, 2.0, "a", None)
        d.read("r1", 3.0, 4.0, "a", stamp=None)
        assert d.rules() == ["missing-stamp", "missing-stamp"]


class TestWindowFold:
    def test_stale_read_straddling_the_window_fold(self):
        """The read's evidence (the superseded write) is folded out of
        the window before the read completes; the monotone base bound
        must still catch it."""
        d = Driver()
        d.write("w0", 0.0, 1.0, "a", S(1, 0))
        d.write("w1", 2.0, 3.0, "b", S(2, 1))
        # No ops in flight at this completion: the floor jumps to 5.0
        # and fold both earlier writes into the base bounds.
        d.write("w0", 4.0, 5.0, "c", S(3, 0))
        state = d.checker._keys[0]
        assert S(1, 0) not in state.window  # a's write left the window
        assert state.base_write_bound is not None
        # ... yet the stale read is still flagged, via the bound.
        d.read("r1", 6.0, 8.0, "a", stamp=S(1, 0))
        assert "stale-read" in d.rules()

    def test_bounded_state_under_a_long_clean_stream(self):
        d = Driver()
        for i in range(1, 4001):
            writer = i % 2
            stamp = S(i, writer)
            t = float(i)
            d.write(f"w{writer}", t, t + 0.4, i, stamp)
            d.read("r1", t + 0.5, t + 0.9, i, stamp=stamp)
        report = d.checker.report()
        assert report.atomic
        assert report.checked_ops == 8000
        assert report.max_retained < 50

    def test_evicted_in_flight_write_skips_later_reads_visibly(self):
        checker = OnlineChecker(overrun_ops=2)
        d = Driver(checker)
        stuck = d.begin_write("w0", 0.0, "stuck-value")
        for i in range(1, 8):
            d.write("w1", float(i), i + 0.5, f"v{i}", S(i, 1))
        # The stuck write outlived the window: reads returning its value
        # are skipped (counted), never misjudged as fabrication.
        d.read("r1", 9.0, 9.5, "stuck-value", stamp=S(99, 0))
        assert checker.report().atomic
        assert checker.report().overrun_unchecked == 1
        # If it eventually completes, it is skipped too.
        d.finish_write(stuck, 10.0, S(99, 0))
        assert checker.report().overrun_unchecked == 2
        assert checker.report().atomic
