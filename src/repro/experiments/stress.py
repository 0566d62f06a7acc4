"""Experiments E6/E9 — correctness under adversity.

* E6 (Theorems 7/8): randomized contended workloads with crashes and
  Byzantine servers; every completed history must be atomic and — while
  a correct quorum exists — every operation must complete
  (wait-freedom).
* E9 (Theorem 12): eventual synchrony — the network drops everything
  until GST, after which view changes elect a correct leader and every
  correct learner learns.

Both are sweeps over single scenario specs: the multi-seed stress study
is :func:`storage_stress_grid` (a ``seed`` axis over a seeded
:class:`~repro.scenarios.RandomMix` literal), the pre-GST regime is
:func:`liveness_grid` (a :func:`~repro.scenarios.lossy_until_gst` fault
schedule parameterized by a ``gst`` axis).
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Propose,
    RandomMix,
    Resync,
    ScenarioSpec,
    SweepSpec,
    lossy_until_gst,
)
from repro.storage.server import FabricatingServer

#: The E6 cells' fixed shape: a contended 8-write / 12-read mix with one
#: fabricating Byzantine server and one mid-run crash.
_WRITES, _READS = 8, 12
_FABRICATOR = ByzantineRole(
    7, partial(FabricatingServer, forged_ts=999, forged_value="EVIL")
)


def _stress_build(point: Mapping) -> ScenarioSpec:
    """One randomized contended run with failures.

    The system is the pbft-style ``n=7, t=2`` instance: up to 2 failures
    are tolerated; we inject one fabricating Byzantine server and one
    mid-run crash, which still leaves a correct (class-3) quorum.
    """
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs="threshold:7,2,2,0,2",
        readers=3,
        faults=FaultPlan(crashes=(Crash(6, 25.0),), byzantine=(_FABRICATOR,)),
        workload=(RandomMix(_WRITES, _READS, horizon=60.0),),
        seed=point["seed"],
    )


def _stress_measure(point: Mapping, result) -> Mapping:
    report = result.atomicity
    operations, completed = len(result.records), len(result.completed)
    ok = report.atomic and completed == operations
    return {
        "verdict": "wait-free atomic" if ok else "violation",
        "operations": operations,
        "completed": completed,
    }


def storage_stress_grid(seeds: Sequence[int]) -> SweepSpec:
    """The E6 grid: one randomized contended cell per seed (the
    one-value axes label each cell with the fixed shape)."""
    return SweepSpec(
        name="storage-stress",
        axes={
            "seed": tuple(seeds),
            "writes": (_WRITES,),
            "reads": (_READS,),
            "byzantine": (True,),
            "crash": (True,),
        },
        build=_stress_build,
        measure=_stress_measure,
    )


def _liveness_build(point: Mapping) -> ScenarioSpec:
    """Messages are lost until GST; the algorithm must still terminate.

    Before GST every message is dropped (the paper's model: pre-GST
    messages are received by GST or lost — we realize the "lost" case).
    The proposal itself is re-driven by the election module: after GST
    suspect timers fire, a view change elects a leader whose consult
    phase completes, and every correct learner learns.  The initial
    prepare is lost pre-GST, and a real deployment's clients would
    retransmit; the Sync message of lines 101-103 plays that role but is
    also dropped pre-GST, so the workload re-sends it periodically.
    """
    gst = point["gst"]
    return ScenarioSpec(
        protocol="rqs-consensus",
        rqs="example6",
        proposers=2,
        learners=3,
        faults=FaultPlan(asynchrony=(lossy_until_gst(gst),)),
        workload=(Propose(0.0, "V"),) + tuple(
            Resync(float(when), proposer=0)
            for when in range(10, int(gst) + 30, 10)
        ),
        horizon=point["horizon"],
        params={"sync_delay": 5.0},
    )


def _liveness_measure(point: Mapping, result) -> Mapping:
    report = result.consensus
    terminated = not report.unterminated
    return {
        "verdict": (
            "live" if terminated and report.agreement_ok else "violation"
        ),
        "terminated": terminated,
        "agreement_ok": report.agreement_ok,
    }


def liveness_grid(gst: float, horizon: float) -> SweepSpec:
    """The E9 grid: the eventual-synchrony schedule at one (or more) GSTs."""
    return SweepSpec(
        name="consensus-liveness",
        axes={"gst": (gst,), "horizon": (horizon,)},
        build=_liveness_build,
        measure=_liveness_measure,
    )
