"""The six benchmark workloads, as data.

Each workload is a name, a unit of work, a one-line reason for existing
and a builder ``(seed, scale) -> job``.  A job is what the program under
test receives: one :class:`~repro.scenarios.ScenarioSpec` (the soaks) or
a list of :class:`~repro.scenarios.SweepSpec` grids (``paper-exhibits``).
``seed`` is the only source of variation between two runs.

**Seed 5 is the tuning seed**: sizes and the expected-verdict pins were
chosen while looking at it.  A performance claim made with this
benchmark must also hold on a seed that was not used while the change
was written.

Sizes are the full sizes (~4-6 s per job on the 2-core reference box);
``scale`` multiplies every ``max_ops``/``duration`` — and the degraded
workload's fault times, so the crash and the drop window keep their
place in the run.  :data:`DEFAULT_SCALE` is what ``perf.run`` uses: a
short pass keeps the calibrations on either side of it close to the
work (``perf/README.md``, *Run protocol*); ``paper-exhibits`` is a
fixed set of grids and does not scale.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Union

from repro.experiments import keyed_mix_spec
from repro.scenarios import (
    Crash,
    Delay,
    Drop,
    FaultPlan,
    ScenarioSpec,
    SweepSpec,
)

#: The common size factor of a benchmark run (recorded in every result).
DEFAULT_SCALE = 0.1

#: Passes per process: a soak pass is short, so that the calibrations
#: around it see the host it ran on; the exhibit pass is calibrated
#: between its grids instead.
SOAK_PASSES = 4

MIX_WRITES, MIX_READS = 4000, 6000
READERS = 8
BOUNDED = {"bounded_history": True}

Job = Union[ScenarioSpec, List[SweepSpec]]


class Workload(NamedTuple):
    name: str
    #: What ``throughput_per_s`` counts: a completed simulated
    #: operation, or a grid cell.
    unit: str
    why: str
    build: Callable[[int, float], Job]
    #: How often one fresh process hands the job to the program; the
    #: process is one sample of the host-time metrics.
    passes: int = SOAK_PASSES


def _soak(protocol: str, seed: int, writes: int = MIX_WRITES,
          reads: int = MIX_READS, n_keys: int = 16,
          **stopping_rule_and_knobs: Any) -> ScenarioSpec:
    return keyed_mix_spec(
        protocol, n_keys, writes=writes, reads=reads, readers=READERS,
        seed=seed, trace_level="metrics", **stopping_rule_and_knobs,
    )


def _ops(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def abd_soak(seed: int, scale: float) -> ScenarioSpec:
    return _soak("abd", seed, max_ops=_ops(36_000, scale))


def abd_batched_soak(seed: int, scale: float) -> ScenarioSpec:
    return _soak("abd", seed, batch_size=16, max_ops=_ops(200_000, scale))


def rqs_soak(seed: int, scale: float) -> ScenarioSpec:
    return _soak("rqs-storage", seed, params=BOUNDED,
                 max_ops=_ops(9_000, scale))


def rqs_degraded_writes(seed: int, scale: float) -> ScenarioSpec:
    faults = FaultPlan(
        crashes=(Crash(1, 0.0), Crash(2, 10_000.0 * scale)),
        asynchrony=(
            Delay(3.0, src=(3,)),
            Drop(dst=(4,), after=3_000.0 * scale, until=13_000.0 * scale),
        ),
    )
    return _soak(
        "rqs-storage", seed, writes=9000, reads=1000, params=BOUNDED,
        max_ops=_ops(9_000, scale),
    ).with_(faults=faults)


def sharded_zipf(seed: int, scale: float) -> ScenarioSpec:
    # shards is fixed, not derived from the host: the partition (and so
    # every simulated count) must not depend on where the run happens.
    return _soak(
        "abd", seed, n_keys=64, skew=1.2, batch_size=16,
        duration=300_000.0 * scale,
    ).with_(shards=2)


def paper_exhibits(seed: int, scale: float) -> List[SweepSpec]:
    # Imported here so the soaks' setup_s does not pay for the exhibit
    # modules (they build their grid literals at import).
    from repro.experiments import (
        baselines, bounds, consensus_latency, contention, fig1, fig4,
        storage_latency, stress, theorem3, theorem6,
    )

    return [
        fig1.GRID,
        fig4.GRID,
        storage_latency.GRID,
        theorem3.GRID,
        consensus_latency.GRID,
        theorem6.CHOOSE_GRID,
        theorem6.END_TO_END_GRID,
        baselines.STORAGE_GRID,
        baselines.CONSENSUS_GRID,
        contention.GRID,
        stress.liveness_grid(40.0, 2000.0),
        bounds.bounds_grid(7),
        stress.storage_stress_grid(
            seeds=range(1000 * seed, 1000 * seed + 8)
        ),
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "abd-soak", "op",
            "cheapest protocol at ~16.7 events/op: the sim event loop "
            "and network delivery do most of the work; the baseline "
            "every other soak is read against",
            abd_soak,
        ),
        Workload(
            "abd-batched-soak", "op",
            "batch_size=16 gives ~1.06 events/op, so the event loop "
            "nearly vanishes and per-op costs (online checker, abd "
            "client, seeded draw) dominate; sim.* changes should not "
            "show here",
            abd_batched_soak,
        ),
        Workload(
            "rqs-soak", "op",
            "the paper's own protocol on its best case (every op one "
            "round): storage.predicates + storage.history + "
            "core.adversary carry the cost, sim.* little",
            rqs_soak,
        ),
        Workload(
            "rqs-degraded-writes", "op",
            "same storage layer used differently: write-heavy, two "
            "crashes, a slow link and a drop window force 2-3 round "
            "slow paths, fault-rule matching and history GC under churn",
            rqs_degraded_writes,
        ),
        Workload(
            "sharded-zipf", "op",
            "the only multi-process workload (2 shards, zipf 1.2): "
            "fork/shm/merge, LPT partition and the full-stream draw "
            "each shard discards; wall-clock ops/s, not CPU capacity",
            sharded_zipf,
        ),
        Workload(
            "paper-exhibits", "cell",
            "what a reader reproducing the paper runs: ~1k tiny "
            "FULL-trace grid cells with post-hoc verdicts; the only "
            "workload where core, consensus, analysis.posthoc and "
            "scenarios.sweeps do the work",
            paper_exhibits, passes=1,
        ),
    )
}

#: Expected ``SweepResult.verdict_counts()`` per exhibit grid (keyed by
#: sweep name), with zero failed cells.  Several violations are *by
#: design* — fig1, theorem3 and theorem6 exhibit what goes wrong
#: without the paper's properties.  A cell that errors or a count that
#: departs from its pin fails the run.
EXHIBIT_PINS: Dict[str, Dict[str, int]] = {
    "fig1": {"atomic": 1, "violation": 1},
    "fig4": {"atomic": 2},
    "storage-latency": {"atomic": 6},
    "theorem3": {"atomic": 1, "violation": 1},
    "consensus-latency": {"ok": 3},
    "theorem6-choose": {},
    "theorem6-end-to-end": {"violation": 1},
    "baseline-storage": {"atomic": 3},
    "baseline-consensus": {},
    "contention": {"atomic": 36},
    "consensus-liveness": {"live": 1},
    "threshold-bounds": {"match": 953},
    "storage-stress": {"wait-free atomic": 8},
}
