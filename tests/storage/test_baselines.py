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
        )
        assert [(r.rounds, r.result) for r in result.reads] == [(2, "a")] * 3

    def test_tolerates_minority_crashes(self):
        result = register(
            "abd", Write(0.0, "v"), Read(10.0),
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0})),
        )
        assert result.read().result == "v"

    def test_blocks_on_majority_crash(self):
        result = register(
            "abd", Write(0.0, "v"),
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0, 3: 0.0})),
        )
        assert not result.write().complete
        assert result.blocked == ("writer-workload",)

    def test_atomic_history(self):
        result = register(
            "abd", Write(0.0, "a"), Read(10.0, reader=0),
            Write(20.0, "b"), Read(30.0, reader=1),
            readers=2,
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


@pytest.mark.parametrize("protocol", ("abd", "fastabd", "naive"))
@pytest.mark.parametrize("key", ("n", "t", "fast"))
def test_the_kernel_deploys_one_instance(protocol, key):
    """Every kernel row runs the Section 1.2 instance (five servers,
    t = 2, fast quorums of four): a spec that sizes it is refused where
    it is built, naming the key."""
    with pytest.raises(ScenarioError, match=f"reads no params key {key!r}"):
        ScenarioSpec(protocol, params={key: 3})
    adapter = run(ScenarioSpec(protocol, workload=(Write(0.0, "v"),))).adapter
    writer = adapter.writers[0]
    assert sorted(adapter.servers) == [1, 2, 3, 4, 5]
    assert (writer.quorum, writer.timeout) == (3, 2.0)  # n - t; 2Δ, Δ = 1
