"""Work-count pins for the exhibit pass's proof facts — no wall clock.

One pass of ``perf``'s ``paper-exhibits`` workload at seed 5 derives
each proof-level fact once per run or once per value:

* a Prepare's ``vProof`` is judged once per run, not once per receiver
  (``choose()`` from the acceptors' proof check: 34 → 5, one per
  distinct Prepare);
* a signed body is canonicalised once (232 → 34, one per body);
* ``B_k`` is built once per ``(S, k)`` (E11's ``bounds_grid(7)``:
  953 → 25 ``ThresholdAdversary`` constructions);
* an update costs one statement lookup (the tracker hands the cascade
  its sender mask) and a learner stops asking to arm its pulls once
  they are armed.
"""

from collections import Counter

import pytest

from perf.workloads import paper_exhibits
from repro.consensus import acceptor
from repro.consensus.decisions import DecisionTracker
from repro.consensus.learner import Learner
from repro.consensus.messages import AckData, Update
from repro.core import constructions
from repro.core.adversary import ThresholdAdversary
from repro.experiments import consensus_latency
from repro.scenarios import run, run_grid
from tests.counting import counted


@pytest.fixture(scope="module")
def exhibit_pass():
    """Counts of one exhibit pass at seed 5, the bounds grid's own
    adversary constructions apart."""
    calls, judged = Counter(), Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptor, "run_choose", counted(
            acceptor, "run_choose", calls
        ))
        patch.setattr(acceptor.Acceptor, "_prepare_proof_ok", counted(
            acceptor.Acceptor, "_prepare_proof_ok", judged,
            lambda self, prepare: [prepare],
        ))
        patch.setattr(AckData, "canonical", counted(
            AckData, "canonical", calls
        ))
        patch.setattr(ThresholdAdversary, "__init__", counted(
            ThresholdAdversary, "__init__", calls
        ))
        patch.setattr(Learner, "_arm_pulls", counted(
            Learner, "_arm_pulls", calls
        ))
        patch.setattr(Learner, "on_message", counted(
            Learner, "on_message", calls,
            lambda self, src, payload: [type(payload).__name__],
        ))
        constructions._threshold_adversary.cache_clear()
        for grid in paper_exhibits(5, 0.1):
            before = calls["__init__"]
            sweep = run_grid(grid)
            if grid.name == "threshold-bounds":
                assert sweep.verdict_counts() == {"match": 953}
                calls["bounds __init__"] = calls["__init__"] - before
    return calls, judged


def test_a_vproof_is_judged_once_per_run(exhibit_pass):
    calls, judged = exhibit_pass
    assert sum(judged.values()) == 34          # proof checks, as before
    assert len(judged) == 5                    # distinct Prepares
    assert calls["run_choose"] == 5            # was 34


def test_a_signed_body_is_canonicalised_once(exhibit_pass):
    calls, _ = exhibit_pass
    assert calls["canonical"] == 34            # was 232


def test_b_k_is_built_once_per_ground_set_and_k(exhibit_pass):
    calls, _ = exhibit_pass
    assert calls["bounds __init__"] == 25      # was 953


def test_a_learner_asks_to_arm_its_pulls_once(exhibit_pass):
    """Updates stop asking once the pulls are armed: one ask per learner
    that heard an update (no learner of the pass is sent a decision)."""
    calls, _ = exhibit_pass
    assert calls["Update"] == 11_906
    assert calls["Decision"] == 0
    assert calls["_arm_pulls"] == 24           # was 11 906, one per update


def test_record_leaves_the_statement_mask_for_the_cascade():
    """The acceptor's cascade reads the mask ``record`` just updated;
    there is no second lookup of the statement to make."""
    assert not hasattr(DecisionTracker, "senders")
    rqs = constructions.threshold_rqs(8, 3, 1, 1, 2)
    tracker = DecisionTracker(rqs)
    masks = []
    for sender in (1, 2, "intruder", 2):
        tracker.record(sender, Update(1, "v", 0, None))
        masks.append(tracker.mask)
    assert masks == [0b1, 0b11, 0b11, 0b11]
    tracker.record(3, Update(2, "v", 0, rqs.quorums[0]))
    assert tracker.mask == rqs.index.bit[3]


def test_only_class_two_payload_quorums_reach_the_exact_rule():
    """No crash, the class-1 path: 8 acceptors x 93 quorums of update2
    traffic, and a ``_missing`` entry only for the class-1 and class-2
    payload quorums (56 of example6's 93 are class 3 only)."""
    (cell,) = [c for c in consensus_latency.GRID.cells()
               if c.point["quorum_class"] == 1]
    result = run(consensus_latency.GRID.spec_for(cell))
    adapter = result.adapter
    rqs = adapter.rqs
    class3 = [q for q in rqs.quorums if rqs.quorum_class(q) == 3]
    assert len(class3) == 56
    trackers = [a._decisions for a in adapter.acceptors.values()]
    trackers += [learner._decisions for learner in adapter.learners]
    payloads = {q for t in trackers for (_, _, q) in t._missing}
    assert payloads and all(rqs.quorum_class(q) <= 2 for q in payloads)
    assert len(payloads) == len(rqs.quorums) - len(class3)
