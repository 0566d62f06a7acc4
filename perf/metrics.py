"""Metric and layer definitions — names, units, directions and bounds.

Pure data plus the file→layer rule; imports nothing from ``repro`` so
``perf/compare.py`` can read two result files without the library.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline median by which the metric may worsen.
    bound: float
    #: Absolute worsening always tolerated, in the metric's unit
    #: (``perf/compare.py`` only; ``BENCHMARK.json`` has no such key).
    floor: float = 0.0


#: End-to-end metrics, every one reported on every workload as the
#: median of a run's samples; ``perf/README.md`` defines each.  The
#: ``sim_*`` bounds are there for the driver, which varies ``--seed``
#: from run to run, and cover seed-to-seed variation only.  They are
#: *not* the gate on simulated behaviour: at one seed the ``sim_*``
#: values must repeat exactly, which ``perf/run.py`` checks within a
#: run and ``perf/compare.py`` across two result files.
END_TO_END: Tuple[Metric, ...] = (
    Metric("throughput_per_s", "units/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25, floor=0.10),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("sim_events_per_unit", "events/unit", "lower", 0.06),
    Metric("sim_rounds_per_op", "rounds", "lower", 0.06),
    Metric("sim_latency_p99", "delta", "lower", 0.04),
)

#: Reported beside the end-to-end metrics but kept out of
#: ``BENCHMARK.json``'s list: it is 0 on every healthy run, and the
#: driver's bounds are shares of a non-zero median.  The driver sees it
#: as the ``attempted``/``failed`` counts of each run.
FAILED_SHARE = Metric("failed_share", "ratio", "lower", 0.0)

#: Metrics that must be bit-identical across passes at one seed.
EXACT = ("sim_events_per_unit", "sim_rounds_per_op", "sim_latency_p99")

#: The ledger's layers: this repository's modules, grouped where a
#: group is one concern.  ``other`` is everything outside them — the
#: stdlib, ``repro.experiments``, ``repro.crypto`` and C builtins (which
#: cProfile cannot see into, whoever called them).
LAYERS: Tuple[str, ...] = (
    "sim.simulator", "sim.network", "sim.conditions", "sim.process",
    "sim.tasks", "sim.trace",
    "storage.abd", "storage.predicates", "storage.history",
    "storage.server", "storage.reader", "storage.writer",
    "storage.batching", "storage.other",
    "core.rqs", "core.adversary", "core.other",
    "consensus",
    "analysis.streaming", "analysis.posthoc",
    "scenarios.workloads", "scenarios.adapters", "scenarios.sharding",
    "scenarios.sweeps",
    "other",
)

#: ``(package, module) -> layer`` for modules that are their own layer;
#: :func:`layer_of` sends the rest of each package to its catch-all.
_OWN_LAYER = {
    ("scenarios", "shm"): "scenarios.sharding",
}
_CATCH_ALL = {
    "storage": "storage.other",
    "core": "core.other",
    "consensus": "consensus",
    "analysis": "analysis.posthoc",
    "scenarios": "scenarios.sweeps",
}


def layer_of(module: Optional[str]) -> str:
    """The layer of one profiled function's file.

    ``module`` is the path below ``src/repro/`` (``"sim/network.py"``),
    or ``None`` for a file outside the library.
    """
    if module is None or "/" not in module:
        return "other"
    package, _, rest = module.partition("/")
    name = rest.rsplit(".", 1)[0]
    layer = _OWN_LAYER.get((package, name), f"{package}.{name}")
    if layer in LAYERS:
        return layer
    return _CATCH_ALL.get(package, "other")


#: Per-layer metrics folded from the traced pass, three per layer.
PROFILE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("self_share", "ratio", "lower"),
    ("self_us_per_unit", "us/unit", "lower"),
    ("calls_per_unit", "calls/unit", "lower"),
)

#: Per-layer metrics the harness takes from public counters and timers.
COUNTER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("scenarios.runner.execute_share", "ratio", "higher"),
    ("sim.network.msgs_per_unit", "msgs/unit", "lower"),
    ("sim.network.dropped_per_unit", "msgs/unit", "lower"),
    ("sim.network.held_per_unit", "msgs/unit", "lower"),
    ("analysis.streaming.max_retained", "count", "lower"),
    ("storage.server.max_retained_cells", "count", "lower"),
    ("storage.server.gc_removed_per_unit", "cells/unit", "lower"),
    ("scenarios.workloads.draw_useful_share", "ratio", "higher"),
    ("scenarios.sharding.overhead_s", "s", "lower"),
    ("scenarios.sharding.imbalance", "ratio", "lower"),
    ("scenarios.sharding.parallel_efficiency", "ratio", "higher"),
    ("scenarios.sharding.straggler_wait_s", "s", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{layer}.{suffix}", unit, better)
    for layer in LAYERS
    for suffix, unit, better in PROFILE_METRICS
) + COUNTER_METRICS
