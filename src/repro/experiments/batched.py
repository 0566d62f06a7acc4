"""Experiment E17 — batching never inflates the read tail.

Cross-key operation batching (``RandomMix.batch_size``) coalesces up to
``b`` pending operations into one message per round-trip.  What that
buys in speed is a number about the simulator (the ``stream`` rows of
``BENCH_workload.json``, ``tools/check_bench.py``'s ``batched events``
rule, ``perf/``'s ``abd-batched-soak``); this module holds the batching
claim about the *protocols*, in simulated time.

Batched readers complete **per element**, and each element takes the
decision its unbatched read takes over the same replies: one straggling
element (a quorum short a lossy server's replies, or a degraded BCD
class) never stalls its whole batch, and a batched RQS read keeps the
paper's one-round read when a class-1 quorum answers consistently.  The
contract is ``p99(batched) <= 1.5 x p99(unbatched)`` read latency per
protocol and plan — asserted in ``tests/experiments/test_experiments.py``
— on :data:`TAIL_GRID`: the two per-element protocols × batch on/off ×
two plans.  ``plan="tail"`` is the lossy-until-GST fault plan of
:data:`TAIL_PLANS`, which deliberately makes the unbatched tail
non-trivial (rqs-storage: two crashed servers plus a lossy one degrade
the responded-quorum class, so unbatched reads hit the Theorem 9
three-round ceiling; fast-ABD: a lossy server plus a slowed writer leg
to two servers widen the pre-write race window, so some unbatched reads
write back).  ``plan="none"`` is the fault-free run, where every read
of either protocol, batched or not, takes one round.
:data:`FABRICATOR_GRID` holds the same contract for rqs-storage with a
fabricating server, which lies to a batched read as to an unbatched one.

Run directly (``python -m repro.experiments.batched``) for the grid's
table, one line per cell.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Mapping

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import ScenarioSpec, SweepSpec, run_grid
from repro.scenarios.faults import ByzantineRole, Crash, Delay, Drop, FaultPlan
from repro.storage.server import FabricatingServer

#: Global stabilization time for the tail plans: both lossy regimes
#: heal at GST, well inside the cells' horizon.
GST = 60.0
TAIL_HORIZON = 80.0
TAIL_KEYS = 4
TAIL_WRITES = 60
TAIL_READS = 120
TAIL_READERS = 4
TAIL_SKEW = 1.2
TAIL_BATCH = 16
TAIL_SEED = 11

#: Per-protocol lossy-until-GST plans tuned so the *unbatched* read
#: tail is the protocol's honest degraded-mode figure (see module
#: docstring) — the 1.5x assertion is vacuous against an all-fast tail.
#: The fault-free cells (``plan="none"``) hold the other end.
TAIL_PLANS: Dict[str, FaultPlan] = {
    "rqs-storage": FaultPlan(
        crashes=(Crash(6, 0.0), Crash(7, 0.0)),
        asynchrony=(Drop(src=(5,), until=GST, label="lossy server 5"),),
    ),
    "fastabd": FaultPlan(
        asynchrony=(
            Drop(src=(2,), until=GST, label="lossy server 2"),
            Delay(3.0, src=("writer",), dst=(1, 3), until=GST,
                  label="slow writer leg"),
        ),
    ),
}


#: ``plan="fabricator"``: server 8 answers every read, batched or not,
#: with a pair stamped above anything the workload writes.
FABRICATOR_PLAN = FaultPlan(byzantine=(ByzantineRole(8, partial(
    FabricatingServer, forged_ts=999, forged_value="EVIL"
)),))


def _tail_build(point: Mapping) -> ScenarioSpec:
    protocol = str(point["protocol"])
    plans = {"tail": TAIL_PLANS[protocol], "none": FaultPlan(),
             "fabricator": FABRICATOR_PLAN}
    return keyed_mix_spec(
        protocol,
        TAIL_KEYS,
        writes=TAIL_WRITES,
        reads=TAIL_READS,
        readers=TAIL_READERS,
        horizon=TAIL_HORIZON,
        skew=TAIL_SKEW,
        seed=point["seed"],
        trace_level="full",
        batch_size=int(point["batch"]),
    ).with_(faults=plans[str(point["plan"])])


def _tail_measure(point: Mapping, result) -> Mapping:
    latency = result.latency("read")
    return {
        "verdict": result.atomicity.verdict,
        "completed": result.ops_completed(),
        "reads": latency.count,
        "read_p50": latency.p50_time,
        "read_p99": latency.p99_time,
        "max_rounds": max((r.rounds for r in result.reads), default=0),
    }


#: The E17 tail grid: per-element protocols × batch on/off × the tail
#: plan or none.
TAIL_GRID = SweepSpec(
    name="batched_tail",
    axes={
        "protocol": ("fastabd", "rqs-storage"),
        "batch": (1, TAIL_BATCH),
        "plan": ("tail", "none"),
        "seed": (TAIL_SEED,),
    },
    build=_tail_build,
    measure=_tail_measure,
)


def _fabricator_measure(point: Mapping, result) -> Mapping:
    forged = sum(read.result == "EVIL" for read in result.reads)
    return {**_tail_measure(point, result), "forged_reads": forged}


#: The E17 fabricator cells: rqs-storage only, as the fast-ABD
#: count-quorum kernel takes no Byzantine role.
FABRICATOR_GRID = SweepSpec(
    name="batched_fabricator",
    axes={"protocol": ("rqs-storage",), "batch": (1, TAIL_BATCH),
          "plan": ("fabricator",), "seed": (TAIL_SEED,)},
    build=_tail_build,
    measure=_fabricator_measure,
)


if __name__ == "__main__":
    for grid in (TAIL_GRID, FABRICATOR_GRID):
        print("\n".join(run_grid(grid).table()))
