"""E9 — Theorem 12: termination under eventual synchrony + contention."""

from benchmarks.conftest import report
from repro.experiments.stress import consensus_liveness
from repro.scenarios import Propose, ScenarioSpec, run


def contended_run():
    return run(ScenarioSpec(
        "rqs-consensus", rqs="example6", proposers=2, learners=3,
        workload=(Propose(0.0, "A", proposer=0),
                  Propose(0.0, "B", proposer=1)),
        horizon=600.0,
    )).consensus


def test_consensus_liveness(benchmark):
    gst_outcome, contended = benchmark.pedantic(
        lambda: (consensus_liveness(gst=40.0), contended_run()),
        rounds=1,
        iterations=1,
    )
    report(
        "Consensus liveness (E9)",
        [gst_outcome.row(), f"contended: learned={dict(contended.learned)}"],
    )
    assert gst_outcome.terminated and gst_outcome.agreement_ok
    assert contended.ok
