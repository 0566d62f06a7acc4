"""Experiment E18 — sharded soak scaling: shards × op budget.

The sharded engine (:mod:`repro.scenarios.sharding`) partitions a keyed
streaming soak across worker processes by the deterministic key→shard
rule; this experiment measures what that buys: **shards × max_ops up to
1e7**, every cell the same batched single-writer ABD soak, sharded
``1/2/4/8`` ways.  Per the repository invariant the whole experiment is
:data:`GRID`.

Cells are measured by the default soak row
(:func:`repro.scenarios.result.soak_row`) and report two throughput
numbers under its ``"host"`` key.  ``ops_per_sec`` is wall-clock —
honest but host-dependent (a 1-core CI runner timeshares the shard
fleet, so wall speedup saturates at 1×).  ``capacity_ops_per_sec`` is
the sum over shards of ``completed / cpu_seconds`` — CPU time is immune
to timesharing, so it measures what the fleet sustains given a core per
shard; that is the number the near-linear-scaling gate checks, and on a
multi-core host wall-clock converges to it.  Per-shard peak RSS rides
along: each worker simulates only ``~n_keys/shards`` registers and
``1/shards`` of the op stream, so the per-process memory gate stays as
flat as the unsharded one.

Run directly (``python -m repro.experiments.scaling``) for the 1e5
sub-grid; ``run_experiment(full=True)`` adds the 1e6 and 1e7 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import ScenarioSpec, SweepSpec, run_grid

#: The soak mix (the E15/E17 40:60 ratio) driven through the batched
#: ABD hot path — batching is what pushes per-process throughput into
#: the tens of thousands of ops/sec that make 1e7-op cells tractable.
MIX_WRITES = 4000
MIX_READS = 6000
SOAK_READERS = 8
SOAK_KEYS = 16
BATCH = 16

TEN_MILLION = 10_000_000


def _scaling_build(point: Mapping) -> ScenarioSpec:
    spec = keyed_mix_spec(
        "abd",
        SOAK_KEYS,
        writes=MIX_WRITES,
        reads=MIX_READS,
        readers=SOAK_READERS,
        horizon=float(MIX_WRITES + MIX_READS),
        seed=point["seed"],
        trace_level="metrics",
        max_ops=point["max_ops"],
        batch_size=BATCH,
    )
    shards = int(point["shards"])
    return spec.with_(shards=shards) if shards > 1 else spec


#: The E18 grid: shard fan-out × op budget (up to 1e7).
GRID = SweepSpec(
    name="scaling",
    axes={
        "shards": (1, 2, 4, 8),
        "max_ops": (100_000, 1_000_000, TEN_MILLION),
        "seed": (5,),
    },
    build=_scaling_build,
)


@dataclass
class ScalingRow:
    shards: int
    max_ops: int
    verdict: str
    ops_per_sec: float
    capacity_ops_per_sec: float
    #: capacity relative to the same-budget shards=1 row (1.0 there).
    capacity_ratio: float
    max_shard_rss_kb: int

    def row(self) -> str:
        return (
            f"shards={self.shards:<2} ops={self.max_ops:<9} "
            f"{self.verdict:<9} wall={self.ops_per_sec:>9.0f} ops/s  "
            f"capacity={self.capacity_ops_per_sec:>9.0f} ops/s "
            f"({self.capacity_ratio:.2f}x)  "
            f"shard rss<={self.max_shard_rss_kb} KiB"
        )


def run_experiment(
    executor: str = "serial",
    full: bool = False,
    sizes: Optional[Sequence[int]] = None,
    shards: Optional[Sequence[int]] = None,
) -> List[ScalingRow]:
    """Run the grid (the 1e5 sub-grid unless ``full``) into rows with
    per-budget capacity ratios against the unsharded baseline."""
    grid = GRID
    if sizes is not None:
        grid = grid.where(max_ops=tuple(sizes))
    elif not full:
        grid = grid.where(max_ops=(100_000,))
    if shards is not None:
        grid = grid.where(shards=tuple(shards))
    sweep = run_grid(grid, executor=executor)
    cells = [
        (cell.point, cell.verdict, cell.require().metrics["host"])
        for cell in sweep.cells
    ]
    baseline = {
        point["max_ops"]: host["capacity_ops_per_sec"]
        for point, _, host in cells
        if point["shards"] == "1"
    }
    rows: List[ScalingRow] = []
    for point, verdict, host in cells:
        base = baseline.get(point["max_ops"]) or 0.0
        capacity = host["capacity_ops_per_sec"]
        rows.append(
            ScalingRow(
                shards=int(point["shards"]),
                max_ops=int(point["max_ops"]),
                verdict=verdict,
                ops_per_sec=host["ops_per_sec"],
                capacity_ops_per_sec=capacity,
                capacity_ratio=round(capacity / base, 3) if base else 0.0,
                max_shard_rss_kb=host["max_shard_rss_kb"],
            )
        )
    return rows


if __name__ == "__main__":
    for row in run_experiment():
        print(row.row())
