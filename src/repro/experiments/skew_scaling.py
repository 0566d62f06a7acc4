"""Experiment E19 — skew-balanced sharding + batched tail latency.

Two grids probe what PRs 8-10's perf work holds onto under adversity:

**Skew grid** (:data:`GRID`) — skew × shards for the batched zipfian
soak.  Uniform sharding is load-balanced by construction; a zipfian key
draw concentrates mass on the hot keys, and a crc32 key→shard rule then
lands whole hot keys on one worker.  The weighted LPT rule in
:func:`repro.scenarios.workloads.shard_assignment` bin-packs the
*expected* per-key frequencies instead, so the grid reads two things
off each cell's default soak row
(:func:`repro.scenarios.result.soak_row`):
``host.capacity_ops_per_sec`` (the near-linear-scaling claim,
CPU-time basis as in E18) and ``imbalance`` (max/mean completed ops per
shard — 1.0 is perfect balance, and the soak gate requires <= 1.3 at
skew 1.2).  Cells are **duration-bounded** (not op-budgeted): an op
budget is split evenly across shards, which would pin imbalance at 1.0
by fiat; a shared time horizon lets a hot shard fall behind and show it.
At skew 2.0 × 4 shards the grid also shows where balance *must* break:
the hot key's weight (1.0 of a ~1.62 total) exceeds a fair quarter, so
every partition is pinned at the hot-key imbalance floor of ~2.47 — the
LPT rule hits exactly that floor rather than crc32's worse draw.

**Tail grid** (:data:`TAIL_GRID`) — batched vs unbatched p99 read
latency under a lossy-until-GST fault plan, for the two protocols whose
batched readers complete **per element**.  Before per-element
completion, one straggling element (a quorum short a lossy server's
replies, or a degraded BCD class) stalled its whole batch; with it, the
contract is that batching never inflates the read tail:
``p99(batched) <= 1.5 x p99(unbatched)`` per protocol — asserted in
``tests/experiments/test_skew_scaling.py``.  The plans deliberately
make the unbatched tail non-trivial (rqs-storage: two crashed servers
plus a lossy one degrade the responded-quorum class, so unbatched reads
hit the Theorem 9 three-round ceiling; fast-ABD: a lossy server plus a
slowed writer leg widen the pre-write race window).

Run directly (``python -m repro.experiments.skew_scaling``) for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import ScenarioSpec, SweepSpec, run_grid
from repro.scenarios.faults import Crash, Delay, Drop, FaultPlan

# -- the skew grid -------------------------------------------------------------

#: The E18 soak mix at E19's key-space width: 64 keys flatten the
#: zipfian head enough that a weighted partition *can* balance it
#: (with 16 keys the skew-1.2 hot key alone outweighs a fair share).
MIX_WRITES = 4000
MIX_READS = 6000
SOAK_READERS = 8
SOAK_KEYS = 64
BATCH = 16

#: Shared open-loop time horizon per cell (~1 op per time unit).
DURATION = 30_000.0


def _skew_build(point: Mapping) -> ScenarioSpec:
    spec = keyed_mix_spec(
        "abd",
        SOAK_KEYS,
        writes=MIX_WRITES,
        reads=MIX_READS,
        readers=SOAK_READERS,
        horizon=float(MIX_WRITES + MIX_READS),
        skew=float(point["skew"]),
        seed=point["seed"],
        trace_level="metrics",
        duration=DURATION,
        batch_size=BATCH,
    )
    shards = int(point["shards"])
    return spec.with_(shards=shards) if shards > 1 else spec


#: The E19 skew grid: zipf exponent × shard fan-out.
GRID = SweepSpec(
    name="skew_scaling",
    axes={
        "skew": (0.8, 1.2, 2.0),
        "shards": (1, 2, 4),
        "seed": (5,),
    },
    build=_skew_build,
)


@dataclass
class SkewRow:
    skew: float
    shards: int
    verdict: str
    capacity_ops_per_sec: float
    #: capacity relative to the same-skew shards=1 row (1.0 there).
    capacity_ratio: float
    imbalance: float

    def row(self) -> str:
        return (
            f"skew={self.skew:<4} shards={self.shards:<2} "
            f"{self.verdict:<9} "
            f"capacity={self.capacity_ops_per_sec:>9.0f} ops/s "
            f"({self.capacity_ratio:.2f}x)  "
            f"imbalance={self.imbalance:.3f}"
        )


def run_experiment(
    executor: str = "serial",
    skews: Optional[Sequence[float]] = None,
    shards: Optional[Sequence[int]] = None,
) -> List[SkewRow]:
    """Run the skew grid into rows with per-skew capacity ratios
    against the unsharded baseline."""
    grid = GRID
    if skews is not None:
        grid = grid.where(skew=tuple(skews))
    if shards is not None:
        grid = grid.where(shards=tuple(shards))
    sweep = run_grid(grid, executor=executor)
    cells = [
        (cell.point, cell.verdict, cell.require().metrics)
        for cell in sweep.cells
    ]
    baseline = {
        point["skew"]: metrics["host"]["capacity_ops_per_sec"]
        for point, _, metrics in cells
        if point["shards"] == "1"
    }
    rows: List[SkewRow] = []
    for point, verdict, metrics in cells:
        base = baseline.get(point["skew"]) or 0.0
        capacity = metrics["host"]["capacity_ops_per_sec"]
        rows.append(
            SkewRow(
                skew=float(point["skew"]),
                shards=int(point["shards"]),
                verdict=verdict,
                capacity_ops_per_sec=capacity,
                capacity_ratio=round(capacity / base, 3) if base else 0.0,
                imbalance=metrics["imbalance"],
            )
        )
    return rows


# -- the tail grid -------------------------------------------------------------

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
TAIL_PLANS: Dict[str, FaultPlan] = {
    "rqs-storage": FaultPlan(
        crashes=(Crash(6, 0.0), Crash(7, 0.0)),
        asynchrony=(Drop(src=(5,), until=GST, label="lossy server 5"),),
    ),
    "fastabd": FaultPlan(
        asynchrony=(
            Drop(src=(2,), until=GST, label="lossy server 2"),
            Delay(3.0, src=("writer",), dst=(0, 1), until=GST,
                  label="slow writer leg"),
        ),
    ),
}


def _tail_build(point: Mapping) -> ScenarioSpec:
    protocol = str(point["protocol"])
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
    ).with_(faults=TAIL_PLANS[protocol])


def _tail_measure(point: Mapping, result) -> Mapping:
    latency = result.latency("read")
    return {
        "verdict": "atomic" if result.atomicity.atomic else "violation",
        "completed": result.ops_completed(),
        "reads": latency.count,
        "read_p50": latency.p50_time,
        "read_p99": latency.p99_time,
        "max_rounds": max((r.rounds for r in result.reads), default=0),
    }


#: The E19 tail grid: per-element protocols × batch on/off.
TAIL_GRID = SweepSpec(
    name="skew_tail",
    axes={
        "protocol": ("fastabd", "rqs-storage"),
        "batch": (1, TAIL_BATCH),
        "seed": (TAIL_SEED,),
    },
    build=_tail_build,
    measure=_tail_measure,
)


@dataclass
class TailRow:
    protocol: str
    verdict: str
    unbatched_p99: float
    batched_p99: float
    #: batched p99 / unbatched p99 — the <= 1.5 contract figure.
    p99_ratio: float

    def row(self) -> str:
        return (
            f"{self.protocol:<12} {self.verdict:<9} "
            f"p99 unbatched={self.unbatched_p99:>5.1f} "
            f"batched={self.batched_p99:>5.1f} "
            f"ratio={self.p99_ratio:.2f}"
        )


def run_tail(executor: str = "serial") -> List[TailRow]:
    """Run the tail grid into one batched/unbatched ratio row per
    protocol."""
    sweep = run_grid(TAIL_GRID, executor=executor)
    by_protocol: Dict[str, Dict[str, Mapping]] = {}
    verdicts: Dict[str, str] = {}
    for cell in sweep.cells:
        metrics = cell.require().metrics
        by_protocol.setdefault(cell.point["protocol"], {})[
            cell.point["batch"]
        ] = metrics
        if cell.verdict != "atomic":
            verdicts[cell.point["protocol"]] = str(cell.verdict)
    rows: List[TailRow] = []
    for protocol, cells in by_protocol.items():
        unbatched = cells["1"]["read_p99"]
        batched = cells[str(TAIL_BATCH)]["read_p99"]
        rows.append(
            TailRow(
                protocol=protocol,
                verdict=verdicts.get(protocol, "atomic"),
                unbatched_p99=unbatched,
                batched_p99=batched,
                p99_ratio=(
                    round(batched / unbatched, 3) if unbatched else 0.0
                ),
            )
        )
    return rows


if __name__ == "__main__":
    for skew_row in run_experiment():
        print(skew_row.row())
    for tail_row in run_tail():
        print(tail_row.row())
