"""Spec → run → verdict round-trips across protocols and fault plans."""

from functools import partial

import pytest

from repro.consensus.proposer import EquivocatingProposer
from repro.errors import CheckerError, ScenarioError
from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Hold,
    Partition,
    Propose,
    RandomMix,
    Read,
    Resync,
    ScenarioSpec,
    Write,
    crashes,
    lossy_until_gst,
    run,
)
from repro.storage.history import BOTTOM
from repro.storage.server import FabricatingServer
from tests.analysis.test_register_checker_oracle import is_linearizable


class TestStorageRoundTrip:
    def test_write_read_verdicts(self):
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            workload=(Write(0.0, "hello"), Read(5.0)),
        ))
        assert result.write().rounds == 1
        assert result.read().result == "hello"
        assert result.atomicity.atomic
        assert is_linearizable(result.records)

    def test_every_storage_protocol_runs(self):
        for protocol, write_rounds, read_rounds in (
            ("rqs-storage", 1, 1),
            ("fastabd", 1, 1),
            ("abd", 1, 2),
            ("naive", 1, 1),
        ):
            rqs = "example6" if protocol == "rqs-storage" else None
            result = run(ScenarioSpec(
                protocol=protocol,
                rqs=rqs,
                readers=1,
                workload=(Write(0.0, "v"), Read(10.0)),
            ))
            assert result.write().rounds == write_rounds, protocol
            assert result.read().rounds == read_rounds, protocol
            assert result.read().result == "v", protocol

    def test_crash_plan_degrades_write(self):
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0})),
            workload=(Write(0.0, "v"),),
        ))
        assert result.write().rounds == 2

    def test_byzantine_plan_is_defeated(self):
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            faults=FaultPlan(byzantine=(ByzantineRole(8, partial(
                FabricatingServer, forged_ts=999, forged_value="EVIL"
            )),)),
            workload=(Write(0.0, "good"), Read(5.0)),
        ))
        assert result.read().result == "good"
        assert result.atomicity.atomic

    def test_asynchrony_plan_forces_two_round_read(self):
        # The write misses server 1 but still completes in one round;
        # crashing two holders afterwards leaves the reader a class-2
        # quorum only — a 2-round read (the Theorem 9 staircase).
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            faults=FaultPlan(
                crashes=(Crash(2, 5.0), Crash(3, 5.0)),
                asynchrony=(Hold(src=("writer",), dst=(1,)),),
            ),
            workload=(Write(0.0, "v"), Read(5.0)),
        ))
        assert result.write().rounds == 1
        assert result.read().rounds == 2
        assert result.read().result == "v"

    def test_partition_blocks_then_heals(self):
        # Writer partitioned from a quorum until t=10: the write blocks
        # past its fast deadline and completes only after healing.
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            faults=FaultPlan(partitions=(
                Partition(frozenset({"writer"}),
                          frozenset(range(1, 8)), until=10.0),
            )),
            workload=(Write(0.0, "v"),),
            horizon=40.0,
        ))
        record = result.write()
        assert record.complete and record.completed_at > 10.0

    def test_random_mix_workload(self):
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=2,
            workload=(RandomMix(4, 6, horizon=40.0),),
            seed=3,
        ))
        assert len(result.writes) == 4 and len(result.reads) == 6
        assert len(result.completed) == 10
        assert result.atomicity.atomic


class TestConsensusRoundTrip:
    def test_best_case_delays_and_verdict(self):
        result = run(ScenarioSpec(
            protocol="rqs-consensus",
            rqs="example6",
            workload=(Propose(0.0, "V"),),
            horizon=60.0,
        ))
        assert result.worst_learner_delay == 2.0
        assert result.consensus.ok
        assert set(result.learned.values()) == {"V"}

    def test_crash_plan_degrades_learning(self):
        result = run(ScenarioSpec(
            protocol="rqs-consensus",
            rqs="example6",
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0})),
            workload=(Propose(0.0, "V"),),
            horizon=60.0,
        ))
        assert result.worst_learner_delay == 3.0
        assert result.consensus.ok

    def test_byzantine_equivocating_proposer_recovers(self):
        from repro.scenarios import PROPOSER

        result = run(ScenarioSpec(
            protocol="rqs-consensus",
            rqs="example6",
            faults=FaultPlan(byzantine=(
                ByzantineRole(0, EquivocatingProposer, role=PROPOSER),
            )),
            workload=(
                Propose(0.0, "EVIL", proposer=0),
                Propose(1.0, "GOOD", proposer=1),
            ),
            horizon=600.0,
        ))
        learned = result.learned
        assert len(learned) == 3 and len(set(learned.values())) == 1

    def test_pre_gst_asynchrony_then_termination(self):
        gst = 30.0
        result = run(ScenarioSpec(
            protocol="rqs-consensus",
            rqs="example6",
            faults=FaultPlan(asynchrony=(lossy_until_gst(gst),)),
            workload=(Propose(0.0, "V"),) + tuple(
                Resync(float(when)) for when in range(10, 60, 10)
            ),
            horizon=1500.0,
            params={"sync_delay": 5.0},
        ))
        report = result.consensus
        assert report.ok and set(result.learned.values()) == {"V"}

    def test_paxos_and_pbft_baselines(self):
        paxos = run(ScenarioSpec(
            protocol="paxos",
            workload=(Propose(0.0, "v"),),
            horizon=60.0,
        ))
        assert paxos.worst_learner_delay == 4.0 and paxos.consensus.ok
        pbft = run(ScenarioSpec(
            protocol="pbft",
            workload=(Propose(0.0, "v"),),
            horizon=60.0,
        ))
        assert pbft.worst_learner_delay == 5.0 and pbft.consensus.ok
        assert (len(paxos.adapter.acceptors), len(pbft.adapter.replicas)) \
            == (5, 4)

    @pytest.mark.parametrize("protocol, params, key", (
        ("paxos", {"n_acceptors": 7}, "n_acceptors"),
        ("pbft", {"f": 2}, "f"),
    ))
    def test_the_baselines_take_no_params(self, protocol, params, key):
        with pytest.raises(ScenarioError,
                           match=f"reads no params key {key!r}; the keys "
                                 f"it reads: none"):
            ScenarioSpec(protocol=protocol, params=params,
                         workload=(Propose(0.0, "v"),), horizon=60.0)


class TestDeterminism:
    def test_identical_specs_identical_traces(self):
        def fingerprint(seed):
            spec = ScenarioSpec(
                protocol="rqs-storage",
                rqs="example6",
                readers=3,
                faults=FaultPlan(crashes=(Crash(4, 20.0),)),
                workload=(RandomMix(5, 8, horizon=50.0),),
                seed=seed,
            )
            return run(spec).fingerprint()

        assert fingerprint(7) == fingerprint(7)
        assert fingerprint(1) != fingerprint(2)

    def test_consensus_runs_repeat(self):
        def fingerprint():
            spec = ScenarioSpec(
                protocol="rqs-consensus",
                rqs="example6",
                workload=(
                    Propose(0.0, "A", proposer=0),
                    Propose(0.0, "B", proposer=1),
                ),
                horizon=300.0,
            )
            return run(spec).fingerprint()

        assert fingerprint() == fingerprint()


class TestRunResultSurface:
    def test_lazy_reports_are_cached(self):
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            workload=(Write(0.0, "v"),),
        ))
        assert result.atomicity is result.atomicity

    def test_blocked_operations_reported(self):
        # Holding the writer's messages blocks the write forever.
        result = run(ScenarioSpec(
            protocol="rqs-storage",
            rqs="example6",
            readers=1,
            faults=FaultPlan(asynchrony=(Hold(src=("writer",)),)),
            workload=(Write(0.0, "v"),),
            horizon=20.0,
        ))
        assert not result.write().complete
        assert result.blocked

    def test_latency_summary(self):
        result = run(ScenarioSpec(
            protocol="abd",
            readers=1,
            workload=(Write(0.0, "v"), Read(5.0)),
        ))
        summary = result.latency("read")
        assert summary.count == 1 and summary.max_rounds == 2


class TestRegisterCheckerRefusals:
    """The register checker refuses what it cannot judge — at both
    trace levels, never an empty or misordered pass."""

    def test_consensus_rows_have_no_register_verdict(self):
        for protocol in ("paxos", "rqs-consensus", "pbft"):
            result = run(ScenarioSpec(
                protocol=protocol,
                rqs="example6" if protocol == "rqs-consensus" else None,
                workload=(Propose(0.0, "v"),),
                horizon=60.0,
            ))
            assert result.consensus.ok, protocol
            with pytest.raises(CheckerError, match=rf"not-storage.*{protocol}"):
                result.atomicity

    def test_storage_rows_have_no_consensus_verdict(self):
        for protocol in ("abd", "rqs-storage"):
            result = run(ScenarioSpec(
                protocol=protocol,
                rqs="example6" if protocol == "rqs-storage" else None,
                workload=(Write(0.0, "v"), Read(10.0)),
            ))
            assert result.atomicity.atomic, protocol
            with pytest.raises(
                CheckerError, match=rf"consensus checker refuses.*{protocol}"
            ):
                result.consensus

    def test_naive_multi_writer_stamps_are_refused(self):
        spec = ScenarioSpec(
            protocol="naive", readers=2, n_writers=2,
            workload=(RandomMix(6, 6, horizon=30.0),), seed=2,
        )
        with pytest.raises(CheckerError, match="unsound-stamps.*naive"):
            run(spec).atomicity
        streamed = run(spec.with_(trace_level="metrics"))
        assert streamed.online is None
        assert streamed.online_refusal.reason == "unsound-stamps"
        # One writer's stamps are its own draw order: judged as ever.
        assert run(spec.with_(n_writers=1)).atomicity.atomic

    def test_value_written_twice_to_one_key_is_refused(self):
        result = run(ScenarioSpec(
            protocol="abd", readers=1,
            workload=(Write(0.0, "v"), Write(5.0, "v"), Read(10.0)),
        ))
        with pytest.raises(CheckerError, match="duplicate written value"):
            result.atomicity

    def test_bottom_written_is_refused(self):
        result = run(ScenarioSpec(
            protocol="abd", readers=1,
            workload=(Write(0.0, BOTTOM), Read(5.0)),
        ))
        with pytest.raises(CheckerError, match="outside the write domain"):
            result.atomicity
