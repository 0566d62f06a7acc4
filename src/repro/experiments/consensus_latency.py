"""Experiment E8 — the consensus latency table (Section 4.2).

The paper's claim: in best-case executions (single correct proposer,
synchrony) all correct learners learn in

======================  ====================
available quorum class  learn (msg delays)
======================  ====================
1                       2
2                       3
3                       4
======================  ====================

and the availability of a class-3 quorum is anyway required for
liveness.  We run the Example 6 instance ``n=8, t=3, k=1, q=1, r=2``
over a uniform-Δ network and crash acceptors so exactly a class-1/2/3
quorum of correct acceptors remains.

The experiment is the one-axis sweep :data:`GRID` over the available
quorum class.
"""

from __future__ import annotations

from typing import Mapping

from repro.scenarios import (
    FaultPlan,
    Propose,
    ScenarioSpec,
    SweepSpec,
    crashes,
)

DEFAULT_RQS = "example6"

_CRASHES = {1: 0, 2: 2, 3: 3}


def _build(point: Mapping) -> ScenarioSpec:
    return ScenarioSpec(
        protocol="rqs-consensus",
        rqs=DEFAULT_RQS,
        proposers=2,
        learners=3,
        faults=FaultPlan(
            crashes=crashes(
                {sid: 0.0
                 for sid in range(1, _CRASHES[point["quorum_class"]] + 1)}
            )
        ),
        workload=(Propose(0.0, "V"),),
        horizon=60.0,
    )


def _measure(point: Mapping, result) -> Mapping:
    return {
        "verdict": "ok" if result.consensus.ok else "violation",
        "delays": {
            str(pid): delay
            for pid, delay in result.learner_delays.items()
        },
        "worst_delay": result.worst_learner_delay,
    }


#: The E8 grid: one cell per available quorum class.
GRID = SweepSpec(
    name="consensus-latency",
    axes={"quorum_class": (1, 2, 3)},
    build=_build,
    measure=_measure,
)

#: The paper's table: worst learner delay (message delays) by available
#: quorum class.
PAPER_CLAIM = {1: 2.0, 2: 3.0, 3: 4.0}
