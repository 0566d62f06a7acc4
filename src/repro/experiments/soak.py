"""Experiment E15 — horizon-free streaming soaks with online verdicts.

The streaming pipeline removes the last O(history) term from long runs:
open-loop workload generation (clients draw their next op lazily), a
non-retaining ``TraceLevel.METRICS`` trace whose records flow through
online latency accumulators, and the windowed per-key online checker
that delivers a safety verdict as operations complete.  This experiment
measures that pipeline at scale: **protocols × keyspace width × op
count up to one million**, every cell an open-loop soak stopped by a
``max_ops`` budget.

Per the repository invariant (**new figure = new grid literal**) the
whole experiment is :data:`GRID`, measured by the default soak row
(:func:`repro.scenarios.result.soak_row`).  Cells report throughput
(``host.ops_per_sec``), streaming latency (``read_p99`` …), the online
verdict and the checker's high-water retained-state mark
(``checker_max_retained``) — the exhibit is that the mark stays
O(clients + keys) while op counts grow 100×.

The protocol axis spans the bounded-state baselines (ABD and fast-ABD
servers keep one/two pairs per key) **and** the paper's RQS protocol
with bounded server history: rqs-storage cells run with
``params={"bounded_history": True}``, under which servers
garbage-collect history cells superseded by quorum-acked newer state
(see :class:`repro.storage.server.StorageServer`), so the server-side
memory term is flat too — cells report the retained/GC'd cell counters
alongside the checker's mark.  (Unbounded rqs-storage keeps the entire
per-key history by design — the Section 5 simplification — which is
exactly why it only joins the soak grid behind the knob.)

Run directly (``python -m repro.experiments.soak``) for the default
sub-grid (≤ 100k ops per cell); ``run_experiment(full=True)`` runs the
million-op rows as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import ScenarioSpec, SweepSpec, run_grid

#: The open-loop mix ratio (writes : reads) and rate scale — the
#: closed-loop soak row's 40/60 mix spread over one op per time unit.
MIX_WRITES = 4000
MIX_READS = 6000
SOAK_READERS = 8

#: The largest cell of the grid (the acceptance soak size).
MILLION = 1_000_000


def _soak_build(point: Mapping) -> ScenarioSpec:
    protocol = point["protocol"]
    return keyed_mix_spec(
        protocol,
        point["n_keys"],
        writes=MIX_WRITES,
        reads=MIX_READS,
        readers=SOAK_READERS,
        horizon=float(MIX_WRITES + MIX_READS),
        seed=point["seed"],
        trace_level="metrics",
        max_ops=point["max_ops"],
        # RQS servers must GC superseded history cells, or the soak's
        # server memory grows O(writes).
        params=(
            {"bounded_history": True} if protocol == "rqs-storage" else None
        ),
    )


#: The E15 grid: protocol × keyspace width × op budget (up to 1e6).
GRID = SweepSpec(
    name="soak",
    axes={
        "protocol": ("abd", "fastabd", "rqs-storage"),
        "n_keys": (4, 16),
        "max_ops": (10_000, 100_000, MILLION),
        "seed": (5,),
    },
    build=_soak_build,
)


@dataclass
class SoakRow:
    protocol: str
    n_keys: int
    max_ops: int
    verdict: str
    ops_per_sec: float
    checker_max_retained: int
    read_p99: float
    #: Summed server-side history-cell high-water mark (rqs-storage
    #: bounded-history cells; 0 for the pair-state baselines).
    server_max_retained: int = 0

    def row(self) -> str:
        return (
            f"{self.protocol:>11} keys={self.n_keys:<3} "
            f"ops={self.max_ops:<8} {self.verdict:<9} "
            f"{self.ops_per_sec:>9.0f} ops/s  "
            f"retained<={self.checker_max_retained:<4} "
            f"server<={self.server_max_retained:<5} "
            f"read p99={self.read_p99}"
        )


def run_experiment(
    executor: str = "serial", full: bool = False, sizes=None
) -> List[SoakRow]:
    """Run the grid (the ≤100k sub-grid unless ``full``) into rows.

    ``sizes`` restricts the ``max_ops`` axis explicitly (e.g. the test
    suite's quick fold uses ``(10_000,)``)."""
    if sizes is not None:
        grid = GRID.where(max_ops=tuple(sizes))
    else:
        grid = GRID if full else GRID.where(max_ops=(10_000, 100_000))
    sweep = run_grid(grid, executor=executor)
    rows: List[SoakRow] = []
    for cell in sweep.cells:
        metrics = cell.require().metrics
        rows.append(
            SoakRow(
                protocol=cell.point["protocol"],
                n_keys=int(cell.point["n_keys"]),
                max_ops=int(cell.point["max_ops"]),
                verdict=cell.verdict,
                ops_per_sec=metrics["host"]["ops_per_sec"],
                checker_max_retained=metrics["checker_max_retained"],
                read_p99=metrics["read_p99"],
                server_max_retained=metrics["server_max_retained_cells"],
            )
        )
    return rows


if __name__ == "__main__":
    for row in run_experiment():
        print(row.row())
