"""Experiment E14 — the keyed-register contention sweep.

The paper states its storage algorithm for a single register; the keyed
register space lifts it (and the ABD-family baselines) to multi-register
multi-writer workloads.  This sweep measures what contention does to
that lift: protocols × keyspace width × keyspace skew × seeds, every
cell a two-writer seeded :class:`~repro.scenarios.RandomMix` whose keys
are drawn ``uniform`` or ``zipfian`` over ``n_keys`` registers.

Per the repository invariant (**new figure = new grid literal**) the
whole experiment is :data:`GRID`; cells report the aggregate atomicity
verdict *and* the per-key verdict partition — each register is checked
independently, so a violation on a hot key never hides behind a clean
cold key (and vice versa).

Expected shape: every cell is atomic (the multi-writer lift stamps
totally-ordered timestamps after a discovery round); wider keyspaces
spread the same operation count over more registers, so per-key checker
work shrinks while message volume per operation stays protocol-constant.
"""

from __future__ import annotations

from typing import Mapping

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import ScenarioSpec, SweepSpec, run_grid

#: Operation budget per cell (spread over 2 writers and 3 readers).
N_WRITES = 8
N_READS = 12
HORIZON = 60.0


def _contention_build(point: Mapping) -> ScenarioSpec:
    return keyed_mix_spec(
        point["protocol"],
        point["n_keys"],
        writes=N_WRITES,
        reads=N_READS,
        readers=3,
        horizon=HORIZON,
        n_writers=2,
        skew=point["skew"] or None,   # 0.0 = uniform draws
        seed=point["seed"],
    )


def _contention_measure(point: Mapping, result) -> Mapping:
    per_key = {
        str(key): "atomic" if atomic else "violation"
        for key, atomic in result.key_verdicts.items()
    }
    return {
        "verdict": result.atomicity.verdict,
        "per_key": per_key,
        "keys_touched": len(per_key),
        "operations": len(result.records),
        "completed": len(result.completed),
        "messages": result.adapter.network.sent_count,
    }


#: The E14 grid: protocol × keyspace width × zipf skew × seed.
GRID = SweepSpec(
    name="contention",
    axes={
        "protocol": ("rqs-storage", "abd", "fastabd"),
        "n_keys": (1, 2, 8),
        "skew": (0.0, 1.2),
        "seed": (0, 1),
    },
    build=_contention_build,
    measure=_contention_measure,
)


if __name__ == "__main__":
    print("\n".join(run_grid(GRID).table()))
