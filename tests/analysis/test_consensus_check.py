"""Tests for the consensus verdicts."""

from repro.analysis.consensus_check import check_consensus
from repro.sim.trace import Trace


def make_trace(proposals, learns):
    trace = Trace()
    for value in proposals:
        record, = trace.begin("propose", "p", 0.0, ((value, 0),))
        trace.complete((record,), 1.0, ("proposed",), 0)
    for learner, value in learns:
        record, = trace.begin("learn", learner, 0.0, ((None, 0),))
        trace.complete((record,), 2.0, (value,), 0)
    return trace.records


def test_clean_execution():
    records = make_trace(["v"], [("l1", "v"), ("l2", "v")])
    report = check_consensus(records, correct_learners=["l1", "l2"])
    assert report.ok and report.learned == {"l1": "v", "l2": "v"}


def test_agreement_violation():
    records = make_trace(["a", "b"], [("l1", "a"), ("l2", "b")])
    report = check_consensus(records)
    assert not report.agreement_ok and not report.ok
    assert report.problems == ("learners disagree: [\"'a'\", \"'b'\"]",)


def test_validity_violation():
    records = make_trace(["a"], [("l1", "ghost")])
    report = check_consensus(records)
    assert not report.validity_ok and not report.ok
    assert report.problems == (
        "learner 'l1' learned unproposed value 'ghost'",
    )


def test_byzantine_learners_excluded():
    records = make_trace(["a"], [("l1", "a"), ("evil", "b")])
    report = check_consensus(records, benign_learners=["l1"])
    assert report.ok is False or report.agreement_ok  # evil filtered
    assert report.learned == {"l1": "a"}


def test_termination_tracking():
    records = make_trace(["a"], [("l1", "a")])
    report = check_consensus(records, correct_learners=["l1", "l2"])
    assert report.unterminated == ("l2",) and not report.ok
    assert report.problems == ("correct learners did not learn: ['l2']",)


def test_byzantine_proposers_disable_validity():
    records = make_trace(["a"], [("l1", "ghost")])
    report = check_consensus(records, all_proposers_benign=False)
    assert report.validity_ok
