"""Experiment E12 — best-case latency versus the classical baselines.

Storage (rounds per operation, synchronous & uncontended, all servers up):

====================  ======  =====
algorithm             write   read
====================  ======  =====
RQS storage (class 1)  1       1
Section 1.2 fast-ABD   1       1
ABD                    1       2
====================  ======  =====

Consensus (message delays until all learners learn):

=====================  ============
algorithm              learn delay
=====================  ============
RQS consensus (class1)  2
RQS consensus (class2)  3
RQS consensus (class3)  4
crash Paxos             4
PBFT-lite               5
=====================  ============

The paper's "who wins" shape: the RQS storage matches fast-ABD where it
applies and halves ABD's read latency; the RQS consensus beats PBFT's
fault-free path by up to 2.5× and never loses to it.

Every row is one grid cell: the sweeps :data:`STORAGE_GRID` and
:data:`CONSENSUS_GRID` each have a single ``algorithm`` axis whose
labeled values *are* the scenario spec literals.
"""

from __future__ import annotations

from typing import Mapping

from repro.scenarios import (
    FaultPlan,
    Propose,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    crashes,
    labeled,
)


_STORAGE_WORKLOAD = (Write(0.0, "v"), Read(10.0))
_CONSENSUS_WORKLOAD = (Propose(0.0, "v"),)


def _spec_of(point: Mapping) -> ScenarioSpec:
    return point["algorithm"]


def _storage_measure(point: Mapping, result) -> Mapping:
    return {
        "write_rounds": result.write().rounds,
        "read_rounds": result.read().rounds,
        "verdict": result.atomicity.verdict,
    }


def _consensus_measure(point: Mapping, result) -> Mapping:
    return {"learn_delays": result.worst_learner_delay}


def _rqs_consensus_spec(n_crashes: int) -> ScenarioSpec:
    return ScenarioSpec(
        protocol="rqs-consensus",
        rqs="example6",
        faults=FaultPlan(
            crashes=crashes({sid: 0.0 for sid in range(1, n_crashes + 1)})
        ),
        workload=_CONSENSUS_WORKLOAD,
        horizon=60.0,
    )


#: The E12 storage table: each labeled axis value is the row's spec.
STORAGE_GRID = SweepSpec(
    name="baseline-storage",
    axes={
        "algorithm": (
            labeled(
                "RQS storage (class 1)",
                ScenarioSpec(protocol="rqs-storage", rqs="example6",
                             readers=1, workload=_STORAGE_WORKLOAD),
            ),
            labeled(
                "section-1.2 fast-ABD",
                ScenarioSpec(protocol="fastabd", readers=1,
                             workload=_STORAGE_WORKLOAD),
            ),
            labeled(
                "ABD",
                ScenarioSpec(protocol="abd", readers=1,
                             workload=_STORAGE_WORKLOAD),
            ),
        )
    },
    build=_spec_of,
    measure=_storage_measure,
)

#: The E12 consensus table: RQS degradation ladder plus the baselines.
CONSENSUS_GRID = SweepSpec(
    name="baseline-consensus",
    axes={
        "algorithm": (
            labeled("RQS consensus (class 1)", _rqs_consensus_spec(0)),
            labeled("RQS consensus (class 2)", _rqs_consensus_spec(2)),
            labeled("RQS consensus (class 3)", _rqs_consensus_spec(3)),
            labeled(
                "crash Paxos",
                ScenarioSpec(protocol="paxos", workload=_CONSENSUS_WORKLOAD,
                             horizon=60.0),
            ),
            labeled(
                "PBFT-lite",
                ScenarioSpec(protocol="pbft", workload=_CONSENSUS_WORKLOAD,
                             horizon=60.0),
            ),
        )
    },
    build=_spec_of,
    measure=_consensus_measure,
)
