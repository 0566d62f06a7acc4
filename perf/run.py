"""The repository benchmark — one command, every metric by name.

Two ways in, one measuring path (:func:`run_worker` → :func:`summarise`
/ :func:`per_layer`):

``python3 perf/run.py --workload W --seed N --seconds T --trace 0|1``
    One workload, as ``BENCHMARK.json``'s driver calls it.  ``--trace
    0`` starts fresh processes for ``T`` seconds, each setting up once
    and running the job a few times (``perf/worker.py``), and reports
    the median sample of each end-to-end metric; ``--trace 1`` makes
    one untraced process and one ``cProfile`` pass and reports the
    per-layer ledger.  The last line of standard
    output is the result object.

``python3 perf/run.py [--seed 5]``  (or ``python -m perf.run``)
    The whole suite: :data:`ROUNDS` processes a workload, interleaved
    round-robin over the workloads, then the traced pass, every number
    printed with its unit and written to ``perf/out/results.json`` for
    ``perf/compare.py``.

Either way a correctness or determinism miss names the workload and the
exit code is non-zero, and host times are in reference seconds
(:func:`reference_s`).  This harness claims no gain; it is the ruler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # started as a script: make `perf` importable
    sys.path.insert(0, str(ROOT))
# The driver's command line cannot set PYTHONPATH; the library is at src/.
sys.path.insert(0, str(ROOT / "src"))

from perf.metrics import (  # noqa: E402
    END_TO_END,
    EXACT,
    FAILED_SHARE,
    LAYERS,
    PER_LAYER,
    layer_of,
)
from perf.workloads import (  # noqa: E402
    DEFAULT_SCALE,
    WORKLOADS,
)

PERF = ROOT / "perf"
OUT = PERF / "out"

#: How long one ``--workload`` run measures (``BENCHMARK.json``'s
#: ``run_seconds``), and how many interleaved rounds (one process a
#: workload each) the suite makes.
RUN_SECONDS = 18
ROUNDS = 5

#: One worker may not outlive this (the driver allows a run 180 s).
WORKER_TIMEOUT_S = 150

#: Counts that, like the ``sim_*`` metrics, must repeat exactly.
EXACT_COUNTS = ("units", "attempted", "events", "messages")


#: What ``perf.worker.calibration_s`` reads on the reference box when
#: the host is quiet: there one reference second is one wall second.
REFERENCE_CALIBRATION_S = 0.1


class WorkerFailed(Exception):
    """A worker process crashed, hung or printed no result."""


def run_worker(workload: str, seed: int, scale: float,
               trace: bool = False) -> Dict[str, Any]:
    """One fresh interpreter: set-up, then the workload's passes (one
    pass when traced); its facts as a dict."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [
            path for path in env.get("PYTHONPATH", "").split(os.pathsep)
            if path
        ]
    )
    passes = 1 if trace else WORKLOADS[workload].passes
    command = [
        sys.executable, str(PERF / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale),
        "--passes", str(passes), "--trace", str(int(trace)),
    ]
    # Its own session, so a hung sharded job's pool workers die with it.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(
            f"{workload}: no result within {WORKER_TIMEOUT_S} s"
        )
    if process.returncode != 0 or not stdout.strip():
        raise WorkerFailed(
            f"{workload}: worker exited with code {process.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def reference_s(wall_s: float, before: float, after: float) -> float:
    """A host time in *reference seconds*: the wall seconds it took,
    times how fast the host was around it, as the calibrations just
    before and just after say (0.5 = half as fast as the quiet reference
    box).  The reference box is a shared guest whose speed changes by up
    to 3x within fractions of a second, all workloads alike
    (``perf/README.md``, *Steadiness*); this takes the host out and
    leaves the program's own speed."""
    return wall_s * 2 * REFERENCE_CALIBRATION_S / (before + after)


def pass_s(facts: Dict[str, Any]) -> float:
    """Reference seconds of one pass: its segments, each corrected by
    its own pair of calibrations."""
    return sum(reference_s(*segment) for segment in facts["segments"])


def throughput_per_s(worker: Dict[str, Any]) -> float:
    """Units a reference second over all passes of one process."""
    passes = worker["passes"]
    return (sum(facts["units"] for facts in passes)
            / sum(pass_s(facts) for facts in passes))


def setup_s(worker: Dict[str, Any]) -> float:
    """Reference seconds from process start to the first event:
    everything before the first pass, plus what a soak's ``run`` does
    around its execute phase (the same work in every pass of the
    process: their median)."""
    return reference_s(*worker["setup_segment"]) + statistics.median(
        reference_s(facts["wiring_s"], *facts["segments"][0][1:])
        for facts in worker["passes"]
    )


def pass_wall_s(facts: Dict[str, Any]) -> float:
    return sum(wall for wall, _, _ in facts["segments"])


def summarise(workload: str,
              workers: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The median sample of each metric — one sample a process for the
    host-time metrics and ``peak_rss_mb``, one a pass for the ``sim_*``
    metrics — plus the correctness/determinism gate."""
    passes = [facts for worker in workers for facts in worker["passes"]]
    samples = {
        "throughput_per_s": [throughput_per_s(w) for w in workers],
        "setup_s": [setup_s(w) for w in workers],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        "sim_events_per_unit": [f["events"] / f["units"] for f in passes],
        "sim_rounds_per_op": [f["rounds_per_op"] for f in passes],
        "sim_latency_p99": [f["latency_p99"] for f in passes],
    }
    problems = [problem for facts in passes for problem in facts["problems"]]
    exact = {name: samples[name] for name in EXACT}
    exact.update({name: [facts[name] for facts in passes]
                  for name in EXACT_COUNTS})
    for name, values in exact.items():
        if len(set(values)) > 1:
            problems.append(f"{name} differs across passes: "
                            f"{sorted(set(values))}")
    attempted = sum(facts["attempted"] for facts in passes)
    failed = sum(facts["failed"] for facts in passes)
    if problems and not failed:
        # A determinism miss has no failed unit to point at: the whole
        # measurement is void.
        failed = attempted
    metrics = {}
    for metric in END_TO_END:
        values = samples[metric.name]
        metrics[metric.name] = {
            "value": statistics.median(values),
            "unit": metric.unit,
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "values": values,
        }
    share = failed / attempted
    metrics[FAILED_SHARE.name] = {
        "value": share, "unit": FAILED_SHARE.unit, "min": share,
        "max": share, "n": len(passes), "values": [share],
    }
    return {
        "workload": workload,
        "unit_of_work": WORKLOADS[workload].unit,
        # Not metrics: what the wall clock read, and how fast the host was.
        "wall_throughput_per_s": statistics.median(
            facts["units"] / pass_wall_s(facts) for facts in passes
        ),
        "host_speed": [pass_s(facts) / pass_wall_s(facts)
                       for facts in passes],
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
    }


def per_layer(untraced: Dict[str, Any],
              traced: Dict[str, Any]) -> Dict[str, float]:
    """The ledger of one workload, from one untraced process and one
    traced pass at the same size: the profile folded into layers plus
    the counters read at the same boundaries."""
    (facts,) = traced["passes"]
    # The untraced side is the process's median pass (its first is cold).
    plain = sorted(untraced["passes"], key=pass_s)[
        len(untraced["passes"]) // 2
    ]
    units = facts["units"]
    speed = pass_s(plain) / pass_wall_s(plain)
    traced_speed = pass_s(facts) / pass_wall_s(facts)
    folded = {layer: [0.0, 0] for layer in LAYERS}
    for module, (self_s, calls) in traced["profile"].items():
        entry = folded[layer_of(None if module == "~" else module)]
        entry[0] += self_s
        entry[1] += calls
    total_self = sum(self_s for self_s, _ in folded.values())
    ledger: Dict[str, float] = {}
    for layer, (self_s, calls) in folded.items():
        ledger[f"{layer}.self_share"] = self_s / total_self
        ledger[f"{layer}.self_us_per_unit"] = (
            self_s * traced_speed * 1e6 / units
        )
        ledger[f"{layer}.calls_per_unit"] = calls / units
    # Single-process workloads have no shards: neutral values.
    sharding = plain.get("sharding", {})
    # Ops begun / register draws made; None (unmeasured) on exhibits.
    draws = traced["key_draws"]
    ledger.update({
        "trace.overhead_ratio": pass_s(facts) / pass_s(plain),
        "scenarios.runner.execute_share":
            plain["execute_s"] / pass_wall_s(plain),
        "sim.network.msgs_per_unit": facts["messages"] / units,
        "sim.network.dropped_per_unit": facts["dropped"] / units,
        "sim.network.held_per_unit": facts["held"] / units,
        "analysis.streaming.max_retained": facts["max_retained"],
        "storage.server.max_retained_cells": facts["max_retained_cells"],
        "storage.server.gc_removed_per_unit":
            facts["gc_removed_cells"] / units,
        "scenarios.workloads.draw_useful_share":
            facts["attempted"] / draws if draws else 1.0,
        "scenarios.sharding.overhead_s":
            sharding.get("overhead_s", 0.0) * speed,
        "scenarios.sharding.imbalance": sharding.get("imbalance", 1.0),
        "scenarios.sharding.parallel_efficiency":
            sharding.get("parallel_efficiency", 1.0),
        "scenarios.sharding.straggler_wait_s":
            sharding.get("straggler_wait_s", 0.0) * speed,
    })
    return ledger


def measure(workload: str, seed: int, scale: float,
            seconds: float) -> Dict[str, Any]:
    """Start fresh processes for about ``seconds``: another starts while
    at least half of one still fits, so a run lasts ``seconds`` give or
    take half a process."""
    deadline = time.monotonic() + seconds
    workers = []
    while True:
        started = time.monotonic()
        workers.append(run_worker(workload, seed, scale))
        now = time.monotonic()
        if now + (now - started) / 2 > deadline:
            return summarise(workload, workers)


def trace_pass(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """One untraced process and one cProfile pass; writes the spans and
    the folded profile to ``perf/out/trace-<workload>.json``."""
    untraced = run_worker(workload, seed, scale)
    traced = run_worker(workload, seed, scale, trace=True)
    summary = summarise(workload, [untraced, traced])
    ledger = per_layer(untraced, traced)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "scale": scale,
        "spans": {"untraced": untraced["spans"],
                  "traced": traced["spans"]},
        "profile_by_file": traced["profile"],
        "per_layer": ledger,
        "sharding": untraced["passes"][0].get("sharding"),
    }, indent=1) + "\n")
    return {
        "correct": summary["correct"],
        "problems": summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "per_layer": {
            name: {"value": ledger[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        },
    }


def print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, row in metrics.items():
        spread = (f"  [min {row['min']:.6g}  max {row['max']:.6g}  "
                  f"n={row['n']}]" if "n" in row else "")
        print(f"{workload:<20} {name:<42} {row['value']:>14.6g} "
              f"{row['unit']}{spread}")


def print_end_to_end(workload: str, entry: Dict[str, Any]) -> None:
    print_metrics(workload, entry["end_to_end"])
    speeds = entry["host_speed"]
    print(f"{workload:<20} wall clock (not a metric): "
          f"{entry['wall_throughput_per_s']:.6g} units/s at host speed "
          f"{statistics.median(speeds):.3f} "
          f"[min {min(speeds):.3f}  max {max(speeds):.3f}]")


def cpu_jiffies() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux);
    field 7 is *steal*, time the hypervisor ran someone else."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0]
    except OSError:
        return None
    return [int(field) for field in first.split()[1:]]


def steal_share(before: Optional[List[int]]) -> Optional[float]:
    """Share of all CPU time since ``before`` that was stolen — on the
    reference box the one noise source that dwarfs the rest (a stolen
    period slows every workload 2-3x for minutes)."""
    after = cpu_jiffies()
    if before is None or after is None or len(after) < 8:
        return None
    return (after[7] - before[7]) / max(1, sum(after[:8]) - sum(before[:8]))


def environment(scale: float) -> Dict[str, Any]:
    cores = os.cpu_count() or 1
    env = {
        "nproc": cores,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "scale": scale,
    }
    if cores < 2:
        # sharded-zipf's wall-clock figure means nothing on one core.
        env["wall_gate"] = "skipped-1-core"
    return env


def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: what the driver runs and holds later PRs to."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def run_one(args: argparse.Namespace) -> int:
    """The driver's entry: one workload, one result object."""
    jiffies = cpu_jiffies()
    if args.trace:
        result = trace_pass(args.workload, args.seed, args.scale)
        metrics = result["per_layer"]
        print_metrics(args.workload, metrics)
    else:
        result = measure(args.workload, args.seed, args.scale, args.seconds)
        metrics = {m.name: result["end_to_end"][m.name] for m in END_TO_END}
        print_end_to_end(args.workload, result)
    print(f"{args.workload:<20} environment (not metrics): "
          f"{dict(environment(args.scale), steal_share=steal_share(jiffies))}")
    for problem in result["problems"]:
        print(f"FAILED {args.workload}: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in metrics.items()},
    }))
    return 0 if result["correct"] else 1


def run_suite(args: argparse.Namespace) -> int:
    """Every workload: interleaved untraced rounds, then the traced pass."""
    env = environment(args.scale)
    jiffies = cpu_jiffies()
    samples: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    for round_index in range(ROUNDS):
        for workload in WORKLOADS:
            samples[workload].append(
                run_worker(workload, args.seed, args.scale)
            )
            walls = [pass_wall_s(facts)
                     for facts in samples[workload][-1]["passes"]]
            print(f"round {round_index + 1}/{ROUNDS} {workload}: "
                  f"{len(walls)} passes, {sum(walls):.3f} s",
                  file=sys.stderr)
    results: Dict[str, Any] = {}
    ok = True
    for workload in WORKLOADS:
        entry = summarise(workload, samples[workload])
        print_end_to_end(workload, entry)
        traced = trace_pass(workload, args.seed, args.scale)
        print_metrics(workload, traced["per_layer"])
        entry["per_layer"] = traced["per_layer"]
        entry["problems"] = entry["problems"] + traced["problems"]
        entry["correct"] = not entry["problems"]
        for problem in entry["problems"]:
            print(f"FAILED {workload}: {problem}")
        ok = ok and entry["correct"]
        results[workload] = entry
    env["steal_share"] = steal_share(jiffies)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": 1,
        "claim": None,
        "seed": args.seed,
        "rounds": ROUNDS,
        "environment": env,
        "workloads": results,
    }, indent=1) + "\n")
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(manifest(), indent=2) + "\n"
    )
    print(f"wrote {out} and BENCHMARK.json; correct={ok}", file=sys.stderr)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="The repository benchmark (see perf/README.md)."
    )
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run this one workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=5,
                        help="the only source of variation (default 5, "
                             "the tuning seed)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="with --workload: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced pass")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="common size factor (default %(default)s)")
    parser.add_argument("--out", default=str(OUT / "results.json"),
                        help="suite: where to write the results")
    args = parser.parse_args(argv)
    try:
        return run_one(args) if args.workload else run_suite(args)
    except WorkerFailed as failure:
        print(f"FAILED {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
