"""Tests for the SWMR atomicity checker (each rule exercised)."""

import pytest

from repro.analysis.atomicity import check_swmr_atomicity
from repro.errors import CheckerError
from repro.sim.trace import Trace
from repro.storage.history import BOTTOM


def make_history(*ops):
    """ops: (kind, process, t_inv, t_resp_or_None, value, result)."""
    trace = Trace()
    for kind, process, invoked, completed, value, result in ops:
        record = trace.begin(kind, process, invoked, value)
        if completed is not None:
            trace.complete(record, completed, result)
    return trace.records


class TestCleanHistories:
    def test_empty_history_is_atomic(self):
        assert check_swmr_atomicity([]).atomic

    def test_sequential_history(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("read", "r", 2, 3, None, "a"),
            ("write", "w", 4, 5, "b", "OK"),
            ("read", "r", 6, 7, None, "b"),
        )
        report = check_swmr_atomicity(records)
        assert report.atomic and report.violations == ()
        assert report.versions == {1: 1, 3: 2}

    def test_initial_bottom_read(self):
        records = make_history(("read", "r", 0, 1, None, BOTTOM))
        assert check_swmr_atomicity(records).atomic

    def test_concurrent_read_may_return_either(self):
        for result in ("a", BOTTOM):
            records = make_history(
                ("write", "w", 0, 10, "a", "OK"),
                ("read", "r", 1, 2, None, result),
            )
            assert check_swmr_atomicity(records).atomic, result

    def test_incomplete_read_ignored(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("read", "r", 2, None, None, None),
        )
        assert check_swmr_atomicity(records).atomic


class TestViolations:
    def test_fabrication(self):
        records = make_history(("read", "r", 0, 1, None, "ghost"))
        report = check_swmr_atomicity(records)
        assert [v.rule for v in report.violations] == ["fabrication"]

    def test_future_read(self):
        records = make_history(
            ("read", "r", 0, 1, None, "a"),
            ("write", "w", 2, 3, "a", "OK"),
        )
        report = check_swmr_atomicity(records)
        assert "future-read" in {v.rule for v in report.violations}

    def test_stale_read(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("write", "w", 2, 3, "b", "OK"),
            ("read", "r", 4, 5, None, "a"),
        )
        report = check_swmr_atomicity(records)
        assert "stale-read" in {v.rule for v in report.violations}

    def test_stale_read_vs_bottom(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("read", "r", 2, 3, None, BOTTOM),
        )
        report = check_swmr_atomicity(records)
        assert "stale-read" in {v.rule for v in report.violations}

    def test_read_inversion(self):
        records = make_history(
            ("write", "w", 0, 100, "a", "OK"),     # concurrent with both
            ("read", "r1", 1, 2, None, "a"),
            ("read", "r2", 3, 4, None, BOTTOM),
        )
        report = check_swmr_atomicity(records)
        assert "read-inversion" in {v.rule for v in report.violations}

    def test_concurrent_reads_may_disagree(self):
        records = make_history(
            ("write", "w", 0, 100, "a", "OK"),
            ("read", "r1", 1, 5, None, "a"),
            ("read", "r2", 2, 4, None, BOTTOM),   # overlaps r1
        )
        assert check_swmr_atomicity(records).atomic


class TestMalformedHistories:
    def test_overlapping_writes_rejected(self):
        records = make_history(
            ("write", "w", 0, 5, "a", "OK"),
            ("write", "w", 1, 6, "b", "OK"),
        )
        with pytest.raises(CheckerError):
            check_swmr_atomicity(records)

    def test_duplicate_values_rejected(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("write", "w", 2, 3, "a", "OK"),
        )
        with pytest.raises(CheckerError):
            check_swmr_atomicity(records)

    def test_bottom_write_rejected(self):
        records = make_history(("write", "w", 0, 1, BOTTOM, "OK"))
        with pytest.raises(CheckerError):
            check_swmr_atomicity(records)
