"""Tests for latency accounting."""

from repro.analysis.latency import LatencySummary
from repro.scenarios import Crash, FaultPlan, Propose, ScenarioSpec, run
from repro.sim.trace import Trace


def test_summarize_rounds():
    trace = Trace()
    for rounds, duration in ((1, 2.0), (2, 4.0), (3, 6.0)):
        record, = trace.begin("write", "w", 0.0, ((rounds, 0),))
        trace.complete((record,), duration, ("OK",), rounds)
    summary = LatencySummary.from_records(trace.records, "write")
    assert summary.count == 3
    assert (summary.min_rounds, summary.max_rounds) == (1, 3)
    assert summary.mean_rounds == 2.0
    assert "write" in summary.row()


def test_summarize_empty_kind():
    summary = LatencySummary.from_records([], "read")
    assert summary.count == 0 and summary.mean_rounds is None


def test_learner_delays_with_a_crashed_learner():
    """Delays are simulated time over Δ (here 2.0: learned at t=4.0 is
    two message delays); a learner that never learned maps to ``None``,
    and then so does the worst delay."""
    result = run(ScenarioSpec(
        "rqs-consensus", rqs="example6", workload=(Propose(0.0, "V"),),
        horizon=60.0, delta=2.0,
        faults=FaultPlan(crashes=(Crash("l1", 0.0),)),
    ))
    assert result.learner_delays == {"l1": None, "l2": 2.0, "l3": 2.0}
    assert result.worst_learner_delay is None
    assert result.consensus.ok and result.learned == {"l2": "V", "l3": "V"}
