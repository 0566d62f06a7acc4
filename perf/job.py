"""What one benchmark job does with the program under test.

Everything here goes through the program's public surface: ``run`` /
``run_grid`` / ``shard_spec`` to execute, and the counters on
``RunResult`` / ``ShardedRunResult`` / ``Network`` / ``OnlineReport`` /
``SweepResult`` to read the outcome.  ``perf.worker`` imports this
module inside its ``import`` span, so the library's import cost lands in
``setup_s``.
"""

from __future__ import annotations

import cProfile
import os
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

import repro
from repro.analysis.streaming import LatencyAccumulator
from repro.scenarios import (
    ScenarioSpec,
    ShardedRunResult,
    percentile,
    run,
    run_grid,
)
from repro.scenarios.sharding import shard_spec

from perf.workloads import EXHIBIT_PINS, Job


def steps(job: Job, traced: bool) -> List[Tuple[str, Callable[[], Any]]]:
    """The calls one pass makes into the program, in order, as ``(span
    name, call)``: one per spec, shard or grid."""
    if isinstance(job, ScenarioSpec):
        if traced and job.shards > 1:
            return [("run", partial(run, shard_spec(job, index)))
                    for index in range(job.shards)]
        return [("run", partial(run, job))]
    return [(f"grid:{grid.name}", partial(run_grid, grid)) for grid in job]


def soak_facts(results: list) -> Dict[str, Any]:
    """Counts, verdict and pooled latency of a streamed soak.

    ``results`` holds one ``RunResult``, one ``ShardedRunResult``, or —
    traced sharded — one ``RunResult`` per shard; the three share the
    streaming surface read here.
    """
    begun = sum(r.ops_begun() for r in results)
    completed = sum(r.ops_completed() for r in results)
    blocked = sum(len(r.blocked) for r in results)
    reports = [r.online for r in results]
    refused = [r.online_refusal for r, rep in zip(results, reports)
               if rep is None]
    violations = sum(rep.violation_count for rep in reports if rep)
    problems = []
    if refused:
        problems.append(f"verdict refused: {refused[0]}")
    if blocked:
        problems.append(f"{blocked} blocked tasks")
    if violations:
        problems.append(f"{violations} online violations")
    if completed != begun:
        problems.append(f"completed {completed} != begun {begun}")
    failed = begun if refused or blocked else begun - completed + violations

    if isinstance(results[0], ShardedRunResult):
        (merged,) = results
        accumulators = [a for o in merged.outcomes
                        for a in o.accumulators.values()]
        messages = merged.messages
        # Shard outcomes carry no drop/hold counters; the traced pass
        # (in-process shards) reports them.
        dropped = held = None
    else:
        accumulators = [a for r in results for kind in r.op_kinds()
                        if (a := r.trace.accumulator(kind))]
        networks = [r.adapter.network for r in results]
        messages = sum(n.sent_count for n in networks)
        dropped = sum(n.dropped_count for n in networks)
        held = sum(n.held_count for n in networks)
    pooled = LatencyAccumulator.merge(accumulators, kind="op")
    histories = [h for r in results if (h := r.server_history)]
    return {
        "units": completed,
        "attempted": begun,
        "failed": failed,
        "problems": problems,
        "events": sum(r.events_processed for r in results),
        "messages": messages,
        "dropped": dropped,
        "held": held,
        "rounds_per_op": pooled.rounds_sum / pooled.count,
        "latency_p99": pooled.quantile(0.99),
        "execute_s": sum(r.execute_seconds for r in results),
        "max_retained": sum(rep.max_retained for rep in reports if rep),
        "max_retained_cells": sum(h["max_retained_cells"]
                                  for h in histories),
        "gc_removed_cells": sum(h["gc_removed_cells"] for h in histories),
    }


def sharding_facts(result) -> Dict[str, Any]:
    """Fork/IPC/merge numbers of one untraced ``ShardedRunResult``."""
    wall = result.execute_seconds
    shard_seconds = [o.execute_seconds for o in result.outcomes]
    return {
        "shards": result.n_shards,
        "overhead_s": wall - max(shard_seconds),
        "imbalance": result.imbalance,
        "parallel_efficiency": result.cpu_seconds / (result.n_shards * wall),
        "straggler_wait_s": max(shard_seconds) - min(shard_seconds),
    }


def exhibit_facts(sweeps: list) -> Dict[str, Any]:
    """Pinned verdict counts and pooled records of the exhibit pass."""
    failed, problems = 0, []
    for sweep in sweeps:
        got, pin = sweep.verdict_counts(), EXHIBIT_PINS[sweep.name]
        if got != pin:
            unexpected = sum(max(0, count - pin.get(verdict, 0))
                             for verdict, count in got.items())
            failed += max(1, unexpected)
            problems.append(f"{sweep.name}: verdicts {got} != pin {pin}")
    cells = [cell for sweep in sweeps for cell in sweep.cells]
    live = [cell.result for cell in cells if cell.result is not None]
    done = [record for r in live for record in r.completed]
    rounds = [record.rounds for record in done if record.rounds]
    return {
        "units": len(cells),
        "attempted": len(cells),
        "failed": failed,
        "problems": problems,
        "events": sum(r.events_processed for r in live),
        "messages": sum(r.adapter.network.sent_count for r in live),
        "dropped": sum(r.adapter.network.dropped_count for r in live),
        "held": sum(r.adapter.network.held_count for r in live),
        "rounds_per_op": sum(rounds) / len(rounds),
        "latency_p99": percentile(
            [r.completed_at - r.invoked_at for r in done], 99
        ),
        "execute_s": sum(r.execute_seconds for r in live),
        "max_retained": 0,
        "max_retained_cells": 0,
        "gc_removed_cells": 0,
    }


def fold_profile(profiler: cProfile.Profile) -> Dict[str, List[float]]:
    """``{file: [self seconds, calls]}`` — library files by their path
    below ``src/repro/``, everything else (stdlib, builtins, this
    harness) under ``"~"``.

    Read from ``getstats()``, not ``pstats``: ``pstats`` keys functions
    by (file, line, name) and keeps only one of two code objects that
    share a key — dataclass-generated ``__init__``s all live at
    ``<string>:2`` — so its call totals change from run to run.
    """
    # Not resolved: code objects carry the path the import used.
    root = os.path.dirname(repro.__file__) + os.sep
    folded: Dict[str, List[float]] = {}
    for entry in profiler.getstats():
        code = entry.code  # a code object, or a str for a C builtin
        filename = code if isinstance(code, str) else code.co_filename
        key = (filename[len(root):].replace(os.sep, "/")
               if filename.startswith(root) else "~")
        totals = folded.setdefault(key, [0.0, 0])
        totals[0] += entry.inlinetime
        totals[1] += entry.callcount
    return folded


def key_draws(profiler: cProfile.Profile) -> int:
    """How often the open-loop streams drew a register for an op
    (calls of ``_KeyDrawer.draw``).  A shard draws for every op of the
    full seeded stream and begins only its own, so ops begun / draws is
    the useful share of that work; no public counter of draws exists."""
    suffix = os.path.join("scenarios", "workloads.py")
    return sum(
        entry.callcount for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_qualname == "_KeyDrawer.draw"
        and entry.code.co_filename.endswith(suffix)
    )
