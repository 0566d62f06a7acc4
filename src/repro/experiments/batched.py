"""Experiment E17 — the batched hot path: throughput vs batch size.

Cross-key operation batching (``RandomMix.batch_size``) lets storage
clients coalesce up to ``b`` pending operations into one batched
message per round-trip; servers apply and ack whole batches, stamps are
issued per element in the historical draw order, and completions feed
the online checkers in element order.  This experiment measures what
the knob buys: the E15 16-key open-loop soak swept over
**protocols × batch size × op budget**, every cell online-checked.

The exhibits:

* **ops/sec grows ≈ linearly with batch size** (fewer round-trips,
  fewer simulated events per operation) — the acceptance claim is the
  ``batch_size=16`` ABD cell at ≥5× the unbatched cell, the same ratio
  ``tools/check_bench.py`` gates on the committed bench artifact;
* **events per op collapses** — the deterministic proxy for the
  wall-clock ratio (events are machine-independent);
* **every cell stays atomic** under its windowed online verdict —
  batching is an optimization, not a semantic change.

Per the repository invariant (**new figure = new grid literal**) the
whole experiment is :data:`GRID`, measured by the default soak row
(:func:`repro.scenarios.result.soak_row`: ``events`` / ``completed``,
``host.ops_per_sec``).  Run directly
(``python -m repro.experiments.batched``) for the 10k sub-grid;
``run_experiment(full=True)`` adds the 100k rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import ScenarioSpec, SweepSpec, run_grid

#: The E15 soak shape: 40/60 open-loop mix, 16 registers, 8 readers.
MIX_WRITES = 4000
MIX_READS = 6000
SOAK_KEYS = 16
SOAK_READERS = 8


def _batched_build(point: Mapping) -> ScenarioSpec:
    protocol = point["protocol"]
    return keyed_mix_spec(
        protocol,
        SOAK_KEYS,
        writes=MIX_WRITES,
        reads=MIX_READS,
        readers=SOAK_READERS,
        horizon=float(MIX_WRITES + MIX_READS),
        seed=point["seed"],
        trace_level="metrics",
        max_ops=point["max_ops"],
        batch_size=point["batch_size"],
        params=(
            {"bounded_history": True} if protocol == "rqs-storage" else None
        ),
    )


#: The E17 grid: protocol × batch size × op budget on the 16-key soak.
GRID = SweepSpec(
    name="batched",
    axes={
        "protocol": ("abd", "fastabd", "rqs-storage"),
        "batch_size": (1, 4, 16),
        "max_ops": (10_000, 100_000),
        "seed": (5,),
    },
    build=_batched_build,
)


@dataclass
class BatchedRow:
    protocol: str
    batch_size: int
    max_ops: int
    verdict: str
    ops_per_sec: float
    events_per_op: float
    #: ops/sec relative to the same protocol's ``batch_size=1`` cell at
    #: the same op budget (1.0 for the unbatched cells themselves).
    speedup: float = 1.0

    def row(self) -> str:
        return (
            f"{self.protocol:>11} batch={self.batch_size:<3} "
            f"ops={self.max_ops:<7} {self.verdict:<9} "
            f"{self.ops_per_sec:>9.0f} ops/s  "
            f"{self.events_per_op:>6.2f} ev/op  "
            f"speedup={self.speedup:.2f}x"
        )


def run_experiment(
    executor: str = "serial", full: bool = False, sizes=None
) -> List[BatchedRow]:
    """Run the grid (the 10k sub-grid unless ``full``) into rows."""
    if sizes is not None:
        grid = GRID.where(max_ops=tuple(sizes))
    else:
        grid = GRID if full else GRID.where(max_ops=(10_000,))
    sweep = run_grid(grid, executor=executor)
    rows: List[BatchedRow] = []
    for cell in sweep.cells:
        metrics = cell.require().metrics
        rows.append(
            BatchedRow(
                protocol=cell.point["protocol"],
                batch_size=int(cell.point["batch_size"]),
                max_ops=int(cell.point["max_ops"]),
                verdict=cell.verdict,
                ops_per_sec=metrics["host"]["ops_per_sec"],
                events_per_op=round(
                    metrics["events"] / max(metrics["completed"], 1), 2
                ),
            )
        )
    baselines = {
        (row.protocol, row.max_ops): row.ops_per_sec
        for row in rows
        if row.batch_size == 1
    }
    for row in rows:
        base = baselines.get((row.protocol, row.max_ops))
        if base:
            row.speedup = round(row.ops_per_sec / base, 2)
    return rows


if __name__ == "__main__":
    for row in run_experiment():
        print(row.row())
