"""Tests for the regular-semantics storage extension."""

import hashlib

import pytest

from repro.analysis.streaming import check_history
from repro.scenarios import (
    Crash,
    FaultPlan,
    Hold,
    RandomMix,
    Read,
    ScenarioSpec,
    Write,
    run,
)
from repro.storage.history import BOTTOM
from tests.analysis.test_register_checker_oracle import check_swmr_atomicity

#: sha256 of ``repr(fingerprint)`` — every record field plus the message
#: count — of the random workload below (5 writes, 9 reads, horizon 40,
#: three readers over ``threshold_rqs(5, 1, 1, 0, 1)``) for seeds 0-3,
#: captured from the hand-wired regular deployment class before it
#: became the ``"rqs-regular"`` registry row.  Do not regenerate: a
#: mismatch is the regression.
FACADE_EXECUTIONS = {
    0: "5282716cc013f2d95d9e710c17bbd8b2ba41df4782cb7c2895067e190e8013f9",
    1: "a20178486ea0d4608448d91daedd7be42400b49323670cec8e1af3e0f00cbac1",
    2: "10841736edf5d117a6ee8519924d94b0c6f540219c7d90c5e9ddbd67760b7e9e",
    3: "0666b7a6d494b5fbe65caed13bbf03e673eed63e0d771f10a9641c1d43e4835a",
}


def regular(rqs, *workload, readers=1, **spec_fields):
    return run(ScenarioSpec(
        "rqs-regular", rqs=rqs, readers=readers, workload=workload,
        **spec_fields,
    ))


class TestRegularReads:
    def test_single_round_even_on_class3_quorum(self):
        """Without the atomicity write-back, uncontended synchronous
        reads are single-round regardless of the quorum class — the
        write pays the 1/2/3 staircase, the regular read never does."""
        for crashed in (0, 2, 3):                    # class 1 / 2 / 3
            result = regular(
                "example6", Write(0.0, "v"), Read(10.0),
                faults=FaultPlan(crashes=[
                    Crash(sid, 0.0) for sid in range(1, crashed + 1)
                ]),
            )
            read = result.read()
            assert result.write().rounds == max(1, crashed)
            assert (read.result, read.rounds) == ("v", 1)
            assert result.atomicity.regular

    def test_initial_read(self):
        record = regular("threshold:5,1,1,0,1", Read(0.0)).read()
        assert record.result is BOTTOM and record.rounds == 1

    def test_sequential_history_regular_and_atomic(self):
        result = regular(
            "threshold:5,1,1,0,1",
            Write(0.0, "a"), Read(10.0, reader=0),
            Write(20.0, "b"), Read(30.0, reader=1),
            readers=2,
        )
        assert [read.result for read in result.reads] == ["a", "b"]
        assert result.atomicity.verdict == "regular"
        assert check_swmr_atomicity(result.records).atomic

    @pytest.mark.parametrize("seed", range(4))
    def test_random_mixes_regular(self, seed):
        result = regular(
            "threshold:5,1,1,0,1", RandomMix(5, 9, horizon=40.0),
            readers=3, seed=seed,
        )
        report = result.atomicity
        assert report.regular, report.violations
        digest = hashlib.sha256(repr(result.fingerprint()).encode())
        assert digest.hexdigest() == FACADE_EXECUTIONS[seed]

    def test_read_inversion_possible_but_still_regular(self):
        """The Figure-4-style schedule that forces the atomic reader
        into a 2-round write-back lets the regular reader return in one
        round; a subsequent degraded reader may then invert — regular
        but not atomic."""
        result = regular(
            "example6",
            # Incomplete write reaching only {4..8}.
            Write(0.0, "v"),
            Read(4.0, reader=0),
            # r2 reads only from {1,2,3,7,8}: it may miss the value.
            Read(10.0, reader=1),
            readers=2, horizon=30.0,
            faults=FaultPlan(
                crashes=(Crash("writer", 1.5),),
                asynchrony=(
                    Hold(src=("writer",), dst=(1, 2, 3)),
                    Hold(src=("reader2",), dst=(4, 5, 6)),
                ),
            ),
        )
        r1, r2 = result.reads
        assert r1.complete and r1.completed_at <= 10.0 and r1.result == "v"
        assert r2.complete
        assert result.atomicity.regular
        if r2.result is BOTTOM:
            # inversion realized: atomicity must reject what
            # regularity accepts
            assert not check_swmr_atomicity(result.records).atomic
            assert [v.rule for v in check_history(result.records).violations] == [
                "read-inversion"
            ]

