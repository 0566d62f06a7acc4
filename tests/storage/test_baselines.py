"""Tests for the ABD, fast-ABD and naive baselines."""

import pytest

from repro.errors import ScenarioError
from repro.experiments import keyed_mix_spec
from repro.scenarios import (
    FaultPlan,
    Hold,
    Read,
    ScenarioSpec,
    Write,
    crashes,
    run,
)


def register(protocol, *workload, readers=1, **spec_fields):
    return run(ScenarioSpec(
        protocol, readers=readers, workload=workload, **spec_fields
    ))


class TestAbd:
    def test_reads_always_two_rounds(self):
        result = register(
            "abd", Write(0.0, "a"), *(Read(10.0) for _ in range(3)),
            params={"n": 5},
        )
        assert [(r.rounds, r.result) for r in result.reads] == [(2, "a")] * 3

    def test_tolerates_minority_crashes(self):
        result = register(
            "abd", Write(0.0, "v"), Read(10.0), params={"n": 5},
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0})),
        )
        assert result.read().result == "v"

    def test_blocks_on_majority_crash(self):
        result = register(
            "abd", Write(0.0, "v"), params={"n": 5},
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0, 3: 0.0})),
        )
        assert not result.write().complete
        assert result.blocked == ("writer-workload",)

    def test_atomic_history(self):
        result = register(
            "abd", Write(0.0, "a"), Read(10.0, reader=0),
            Write(20.0, "b"), Read(30.0, reader=1),
            readers=2, params={"n": 5},
        )
        assert [read.result for read in result.reads] == ["a", "b"]
        assert result.atomicity.atomic

    def test_repeat_write_backs_keep_one_threshold(self):
        """Every read after the one write writes the same stamp back, so
        the reader keeps one responder set for all of them (the
        same-stamp fast path).  Its quorum wait is one condition however
        often it is asked for — one per read made the set signal 3 569
        conditions per ack by the end of this run."""
        result = run(keyed_mix_spec(
            "abd", 1, writes=1, reads=16_000, readers=1, seed=3,
            trace_level="metrics", max_ops=16_001,
        ))
        assert result.ops_completed() == 16_001
        (retained,) = result.adapter.readers[0]._acks._items.values()
        assert len(retained._thresholds) + len(retained._checks) <= 1


class TestFastAbd:
    def test_single_round_best_case(self):
        result = register("fastabd", Write(0.0, "v"), Read(10.0))
        read = result.read()
        assert result.write().rounds == 1
        assert (read.result, read.rounds) == ("v", 1)
        assert result.atomicity.atomic

    def test_two_round_fallback(self):
        result = register(
            "fastabd", Write(0.0, "v"), Read(10.0),
            faults=FaultPlan(crashes=crashes({4: 0.0, 5: 0.0})),
        )
        read = result.read()
        assert result.write().rounds == 2
        assert read.result == "v" and read.rounds <= 2
        assert result.atomicity.atomic

    def test_atomic_with_incomplete_write(self):
        result = register(
            "fastabd", Write(0.0, "v"), Read(0.0), readers=2, horizon=30.0,
            faults=FaultPlan(asynchrony=(
                Hold(src=("writer",), dst=(1, 2, 4, 5)),
            )),
        )
        assert not result.write().complete
        assert result.read().complete
        assert result.atomicity.atomic


class TestNaive:
    def test_works_in_failure_free_runs(self):
        result = register(
            "naive", Write(0.0, "v"), Read(5.0), horizon=10.0
        )
        assert result.write().rounds == 1
        assert result.read().result == "v"


#: Ill-formed count-quorum deployments: each used to raise a bare
#: ``ValueError`` from deep in the client, or to block every op while
#: the run still reported ``atomic``.
BAD_PARAMS = (
    ({"t": 5}, "t", "0 <= t <= 4"),          # quorum n - t = 0
    ({"n": 0}, "n", "1 <= n"),
    ({"t": -1}, "t", "0 <= t <= 4"),         # needs n + 1 of n acks
    ({"fast": 0}, "fast", "1 <= fast <= 5"),
    ({"fast": 6}, "fast", "1 <= fast <= 5"),  # fast = n + 1
)


@pytest.mark.parametrize("protocol", ("abd", "fastabd", "naive"))
@pytest.mark.parametrize("params, name, bound", BAD_PARAMS)
def test_ill_formed_params_are_refused(protocol, params, name, bound):
    with pytest.raises(ScenarioError) as refused:
        register(protocol, Write(0.0, "v"), Read(5.0), params=params)
    message = str(refused.value)
    assert f"params[{name!r}]" in message and bound in message
    assert repr(protocol) in message


#: The edges of the accepted ranges: a single server, and the largest
#: ``t`` and ``fast`` the five-server deployment admits.
EDGE_PARAMS = (
    {"n": 1, "t": 0, "fast": 1},
    {"n": 5, "t": 4, "fast": 5},
)


@pytest.mark.parametrize("protocol", ("abd", "fastabd", "naive"))
@pytest.mark.parametrize("params", EDGE_PARAMS)
def test_edge_params_are_accepted(protocol, params):
    result = register(
        protocol, Write(0.0, "v"), Read(5.0), params=params, horizon=20.0
    )
    assert result.write().complete
    assert result.read().result == "v"
    assert result.blocked == ()
    assert result.atomicity.atomic
