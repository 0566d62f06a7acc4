"""Scenario-level tests for the quorum_strategy knob.

The RNG-ordering invariant is the load-bearing one: strategy draws
live on a dedicated per-client stream, so turning the knob on must not
shift a single workload arrival — and leaving it off must reproduce
pre-strategy executions byte-for-byte (the golden-fingerprint suite
covers the latter; here we pin the former).
"""

import pytest

from repro.core.algebra import Node, QuorumSystem, demo_grid_rqs
from repro.core.strategy import uniform_strategy
from repro.errors import ScenarioError
from repro.scenarios import (
    Propose,
    RandomMix,
    Read,
    ScenarioSpec,
    Write,
    run,
)


def grid_spec(**overrides):
    base = dict(
        protocol="rqs-storage",
        rqs="grid-hetero",
        readers=2,
        n_writers=2,
        n_keys=2,
        workload=(RandomMix(8, 8, horizon=30.0),),
        seed=5,
        horizon=60.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def schedule(result):
    """The workload arrival schedule (what the strategy must not move)."""
    return tuple(
        (r.kind, r.process, r.invoked_at) for r in result.records
    )


class TestSpecValidation:
    def test_rejects_unknown_strategy_name(self):
        with pytest.raises(ScenarioError, match="quorum_strategy"):
            grid_spec(quorum_strategy="fastest")

    def test_accepts_none_and_the_two_names(self):
        for value in (None, "uniform", "optimal"):
            assert grid_spec(quorum_strategy=value).quorum_strategy == value

    def test_rejects_a_strategy_instance(self):
        # The knob names a distribution the adapter builds over the
        # spec's own RQS; a prebuilt Strategy is not one of its forms.
        strategy = uniform_strategy(demo_grid_rqs().quorums)
        with pytest.raises(ScenarioError,
                           match="None, 'uniform' or 'optimal'"):
            grid_spec(quorum_strategy=strategy)

    def test_a_quorum_system_is_refused_as_rqs(self):
        # A planning-level expression reaches a spec through its
        # registered lift ("grid-hetero"), never as the value itself.
        a, b, c, d = (Node(x) for x in "abcd")
        with pytest.raises(ScenarioError,
                           match="a threshold:n,t,k,q,r string"):
            ScenarioSpec(
                protocol="rqs-storage",
                rqs=QuorumSystem(reads=a * b + c * d),
                readers=1,
                workload=(Write(0.0, "v"), Read(5.0)),
            )

    @pytest.mark.parametrize("workload", (
        (Write(0.0, 1), Read(5.0), Read(6.0)),
        (RandomMix(8, 8, horizon=30.0), Read(40.0)),
    ), ids=("literals", "mix-and-literal"))
    def test_a_strategy_reads_its_fraction_off_one_mix(self, workload):
        spec = grid_spec(quorum_strategy="optimal", workload=workload)
        with pytest.raises(ScenarioError,
                           match="the workload's one RandomMix literal"):
            run(spec)


class TestStrategyRuns:
    @pytest.mark.parametrize("strategy", ["uniform", "optimal"])
    def test_named_strategies_run_atomic(self, strategy):
        result = run(grid_spec(quorum_strategy=strategy))
        assert result.ops_completed() == result.ops_begun()
        assert result.atomicity.atomic

    def test_strategy_draws_never_move_the_workload(self):
        # Same seed, knob off vs on: identical arrival schedules.  A
        # strategy that consumed workload RNG draws would shift them.
        broadcast = run(grid_spec())
        targeted = run(grid_spec(quorum_strategy="optimal"))
        assert schedule(broadcast) == schedule(targeted)

    def test_strategies_are_deterministic_per_seed(self):
        first = run(grid_spec(quorum_strategy="uniform"))
        second = run(grid_spec(quorum_strategy="uniform"))
        assert first.fingerprint() == second.fingerprint()

    def test_targeting_sends_fewer_messages_than_broadcast(self):
        broadcast = run(grid_spec())
        targeted = run(grid_spec(quorum_strategy="optimal"))
        assert (
            targeted.adapter.network.sent_count
            < broadcast.adapter.network.sent_count
        )


class TestProtocolSupport:
    def test_abd_rejects_the_knob(self):
        with pytest.raises(ScenarioError, match="only rqs-storage"):
            run(ScenarioSpec(
                protocol="abd",
                readers=1,
                workload=(Write(0.0, "v"), Read(5.0)),
                quorum_strategy="uniform",
            ))

    def test_paxos_rejects_the_knob(self):
        with pytest.raises(ScenarioError, match="only rqs-storage"):
            run(ScenarioSpec(
                protocol="paxos",
                workload=(Propose(0.0, "v"),),
                horizon=60.0,
                quorum_strategy="uniform",
            ))

    def test_rqs_consensus_rejects_the_knob(self):
        with pytest.raises(ScenarioError, match="only rqs-storage"):
            run(ScenarioSpec(
                protocol="rqs-consensus",
                rqs="example6",
                workload=(Propose(0.0, "v", proposer=0),),
                horizon=120.0,
                quorum_strategy="optimal",
            ))


class TestCapacityModel:
    def test_capacity_model_needs_capacities(self):
        with pytest.raises(ScenarioError, match="capacit"):
            run(ScenarioSpec(
                protocol="rqs-storage",
                rqs="example6",
                readers=1,
                workload=(Write(0.0, "v"), Read(5.0)),
                params={"capacity_model": True},
            ))

    def test_rate_limited_run_stays_atomic(self):
        result = run(grid_spec(
            quorum_strategy="optimal",
            params={"capacity_model": True},
        ))
        assert result.atomicity.atomic
        assert result.ops_completed() > 0
