"""Whole-system determinism: identical configurations yield identical
executions — the reproducibility guarantee the README promises."""

from repro.scenarios import (
    Crash,
    FaultPlan,
    Propose,
    RandomMix,
    ScenarioSpec,
    run,
)


def storage_fingerprint(seed):
    result = run(ScenarioSpec(
        "rqs-storage", rqs="example6", readers=3,
        faults=FaultPlan(crashes=(Crash(4, 20.0),)),
        workload=(RandomMix(5, 8, horizon=50.0),), seed=seed,
    ))
    return tuple(
        (r.kind, r.process, r.invoked_at, r.completed_at, repr(r.result), r.rounds)
        for r in result.records
    ) + (len(result.adapter.network.log),)


def consensus_fingerprint():
    result = run(ScenarioSpec(
        "rqs-consensus", rqs="example6", proposers=2,
        workload=(Propose(0.0, "A", proposer=0),
                  Propose(0.0, "B", proposer=1)),
        horizon=300.0,
    ))
    return (
        tuple(sorted(result.learned.items())),
        len(result.adapter.network.log),
        result.events_processed,
    )


def test_storage_runs_are_bitwise_repeatable():
    assert storage_fingerprint(7) == storage_fingerprint(7)


def test_storage_runs_differ_across_seeds():
    assert storage_fingerprint(1) != storage_fingerprint(2)


def test_consensus_runs_are_bitwise_repeatable():
    assert consensus_fingerprint() == consensus_fingerprint()
