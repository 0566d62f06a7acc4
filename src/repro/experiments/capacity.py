"""Experiment E16 — predicted vs measured capacity of access strategies.

The paper's concluding section names "the load and availability of RQS"
as an open direction.  The quorum algebra (:mod:`repro.core.algebra`)
and the exact strategy engine (:mod:`repro.core.strategy`) make the
load half *predictive*: for a quorum expression with per-node
capacities and a read fraction, the LP yields a distribution over
quorums whose peak per-node load — and hence ``capacity = 1/load``, the
sustainable operations per time unit — is exact.  This experiment
closes the loop by *measuring*: storage clients draw their quorums from
the strategy's seeded distribution, servers are rate-limited to their
node capacities (:class:`~repro.storage.server.RateLimitedServer`), and
the grid compares completed operations by the horizon across

    **system × strategy × read-mix × fault plan**

on the 2×3 grid expression ``a*b*c + d*e*f``.  The exhibit: on the
heterogeneous-capacity system (one fast row, one slow row) the
load-optimal strategy sustains strictly more measured operations than
the uniform strategy on every cell — and degrades far more gracefully
when a slow node crashes mid-run — while on the homogeneous control
system the two strategies measure the same, matching the prediction
that uniform is already (near-)optimal there.

Per the repository invariant (**new figure = new grid literal**) the
whole experiment is :data:`GRID`.  Simulated executions are
machine-independent, so the per-cell ``sim_ops_per_sec``
(completed / horizon) is exact and byte-stable — the
``tools/check_bench.py`` CI gate holds ``BENCH_quorums.json`` to it.

Run directly: ``PYTHONPATH=src python -m repro.experiments.capacity``
(add ``--emit`` to rewrite ``BENCH_quorums.json``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from repro.core.strategy import optimal_strategy, uniform_strategy
from repro.scenarios import (
    Crash,
    FaultPlan,
    RandomMix,
    ScenarioSpec,
    SweepSpec,
    labeled,
    resolve_rqs,
    run_grid,
)

SCHEMA_VERSION = 1

#: Clients: enough closed-loop parallelism to exceed the uniform
#: strategy's predicted capacity (so its queueing deficit is visible)
#: without exceeding the optimal strategy's.
READERS = 8
N_WRITERS = 4
#: Keys partition the atomicity check (and the register space).
N_KEYS = 4
#: RandomMix arrival horizon and the spec horizon (drain window after).
MIX_HORIZON = 60.0
HORIZON = 90.0

#: (writes, reads) mixes spanning write-heavy to read-heavy fractions.
MIXES = (
    labeled("w200r40", (200, 40)),
    labeled("w120r120", (120, 120)),
    labeled("w40r200", (40, 200)),
)
#: Crash of slow-row node ``d`` mid-arrival window.
FAULT_PLANS = (
    labeled("none", FaultPlan()),
    labeled("crash-slow", FaultPlan(crashes=(Crash("d", 30.0),))),
)


def _capacity_build(point: Mapping) -> ScenarioSpec:
    writes, reads = point["mix"]
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs=point["system"],
        readers=READERS,
        n_writers=N_WRITERS,
        n_keys=N_KEYS,
        workload=(RandomMix(writes, reads, horizon=MIX_HORIZON),),
        seed=point["seed"],
        horizon=HORIZON,
        faults=point["faults"],
        quorum_strategy=point["strategy"],
        params={"capacity_model": True},
    )


def _predicted(point: Mapping):
    """The strategy the cell runs, rebuilt for its exact prediction."""
    writes, reads = point["mix"]
    rqs = resolve_rqs(point["system"])
    family = rqs.quorums
    build = (
        uniform_strategy if point["strategy"] == "uniform"
        else optimal_strategy
    )
    return build(
        family, family,
        read_fraction=Fraction(reads, reads + writes),
        read_capacity=rqs.read_capacity,
        write_capacity=rqs.write_capacity,
    )


def _capacity_measure(point: Mapping, result) -> Mapping:
    strategy = _predicted(point)
    completed = result.ops_completed()
    return {
        "operations": result.ops_begun(),
        "completed": completed,
        "events": result.adapter.sim.events_processed,
        "messages": result.adapter.network.sent_count,
        "atomic": result.atomicity.atomic,
        # Simulated-time throughput: machine-independent, gate-exact.
        "sim_ops_per_sec": round(completed / HORIZON, 6),
        # Exact rationals travel as "p/q" strings (jsonable reprs
        # non-primitives); the float twin is for plotting.
        "predicted_load": str(strategy.load),
        "predicted_capacity": round(float(strategy.capacity), 6),
        "read_fraction": str(strategy.read_fraction),
        "wall_s": round(result.execute_seconds, 4),
    }


#: The E16 grid: system × strategy × read-mix × fault plan.
GRID = SweepSpec(
    name="quorums",
    axes={
        "system": ("grid-hetero", "grid-homog"),
        "strategy": ("uniform", "optimal"),
        "mix": MIXES,
        "faults": FAULT_PLANS,
        "seed": (0,),
    },
    build=_capacity_build,
    measure=_capacity_measure,
)


def collect(executor: str = "serial") -> dict:
    """Run the grid and assemble the ``BENCH_quorums.json`` payload."""
    sweep = run_grid(GRID, executor=executor)
    cases = []
    for cell in sweep.cells:
        metrics = dict(cell.require().metrics)
        cases.append({
            "system": cell.point["system"],
            "strategy": cell.point["strategy"],
            "mix": cell.point["mix"],
            "faults": cell.point["faults"],
            "seed": cell.point["seed"],
            **metrics,
        })
    return {
        "name": "quorums",
        "schema_version": SCHEMA_VERSION,
        "horizon": HORIZON,
        "cases": cases,
    }


def emit(directory=None) -> Path:
    """Regenerate ``BENCH_quorums.json`` (repo root by default)."""
    payload = collect()
    root = Path(__file__).resolve().parents[3]
    path = Path(directory or root) / "BENCH_quorums.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


if __name__ == "__main__":
    import sys

    if "--emit" in sys.argv:
        print(f"wrote {emit()}")
    else:
        print("\n".join(run_grid(GRID).table()))
