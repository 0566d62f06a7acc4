"""One fresh process of one benchmark workload: set-up, then passes.

``perf.run`` starts this file in a new interpreter, so ``setup_s``
includes the imports and ``peak_rss_mb`` belongs to one workload.  The
process builds the job once and hands it to the program ``--passes``
times; the process is one sample of the host-time metrics.  The job
reaches the program under test only through its public surface —
``run`` / ``run_grid`` / ``shard_spec`` and the counters on their
results (``perf/job.py``) — and the last line of standard output is one
JSON object with the raw facts; ``perf.run`` turns facts into metrics.

**Calibration.**  The host's speed changes by up to 3x within fractions
of a second (``perf/README.md``, *Steadiness*), so the wall clock alone
says little.  :func:`calibration_s` times a fixed piece of interpreter
work; the process runs it before its imports, before the first pass and
after every *segment* of a pass (a soak pass is one segment, the
exhibit pass is cut after every :data:`SEGMENT_S` of grids).  Each segment is
reported with the calibration just before and just after it, and
``perf.run`` divides one by the other.  Calibrations run outside every
timed interval and outside the profiler.

With ``--trace 1`` the calls into the program run under ``cProfile``
and the object also carries self seconds and call counts folded by
source file.  A sharded spec is then run shard by shard in this process
(``run(shard_spec(spec, i))``) so that worker code is visible to the
profiler; its fork/IPC numbers come from the untraced run.
"""

from __future__ import annotations

import sys
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Iterator, List, Optional, Tuple  # noqa: E402

#: An exhibit pass is calibrated again after this much work (seconds).
SEGMENT_S = 0.25


class _Event:
    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def bump(self) -> int:
        self.count += 1
        return self.count


def calibration_s() -> float:
    """Seconds the host needs, right now, for a fixed piece of
    interpreter work shaped like the simulator's: a heap of event
    tuples, small slotted objects, method calls, a dict of counters
    (~0.1 s on the quiet reference box)."""
    started = time.perf_counter()
    heap: List[Any] = []
    seen: Dict[int, int] = {}
    for index in range(110_000):
        heapq.heappush(heap, ((index * 7919) % 1009, index, _Event(index)))
        if len(heap) > 64:
            at, _, event = heapq.heappop(heap)
            seen[at] = seen.get(at, 0) + event.bump() % 3
    return time.perf_counter() - started


if __package__ in (None, ""):  # started as a script: make `perf` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


class Spans:
    """An in-memory span log: name, start, end, parent id, workload id.

    Spans are recorded around the calls *into* the program from the
    benchmark's own files; spans inside ``src/`` are a later change.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: Optional[float],
            parent: Optional[int]) -> Dict[str, Any]:
        row = {"id": len(self.rows), "name": name, "parent": parent,
               "workload": self.workload, "start": start, "end": end}
        self.rows.append(row)
        return row

    @contextmanager
    def span(self, name: str,
             start: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        row = self.add(
            name, time.perf_counter() if start is None else start, None,
            self._open[-1] if self._open else None,
        )
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()


def one_pass(jobs, job, spans: Spans, before: float,
             profiler: Optional[cProfile.Profile]) -> Dict[str, Any]:
    """Hand the job to the program once and read the outcome.

    The pass's facts, plus ``segments``: ``[wall seconds, calibration
    before, calibration after]`` for each stretch of work between two
    calibrations.  The verdict read-out belongs to the last segment.
    """
    soak = isinstance(job, jobs.ScenarioSpec)

    def timed(name: str, call) -> Tuple[Any, Dict[str, Any]]:
        with spans.span(name) as row:
            if profiler:
                profiler.enable()
            value = call()
            if profiler:
                profiler.disable()
        return value, row

    def calibrate() -> float:
        with spans.span("calibration"):
            return calibration_s()

    results, segments = [], []
    work = ran = 0.0
    with spans.span("pass"):
        for name, call in jobs.steps(job, traced=profiler is not None):
            if work >= SEGMENT_S:
                after = calibrate()
                segments.append([work, before, after])
                before, work = after, 0.0
            result, row = timed(name, call)
            results.append(result)
            work += row["end"] - row["start"]
            ran += row["end"] - row["start"]
            if soak:
                # execute_seconds is timed inside the program; shown as
                # a child of `run` ending where `run` ends.
                spans.add("execute", row["end"] - result.execute_seconds,
                          row["end"], row["id"])
        facts, row = timed(
            "verdict",
            lambda: (jobs.soak_facts if soak
                     else jobs.exhibit_facts)(results),
        )
        segments.append([work + row["end"] - row["start"], before,
                         calibrate()])
    facts["segments"] = segments
    # What `run` does around its own execute phase (a soak's wiring).
    facts["wiring_s"] = ran - facts["execute_s"] if soak else 0.0
    if isinstance(results[0], jobs.ShardedRunResult):
        facts["sharding"] = jobs.sharding_facts(results[0])
        facts["max_shard_rss_kb"] = results[0].max_shard_rss_kb
    return facts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spans = Spans(args.workload)
    with spans.span("process", start=_PROCESS_START):
        with spans.span("calibration"):
            first = calibration_s()
        with spans.span("import"):
            from perf import job as jobs
            from perf.workloads import WORKLOADS
        with spans.span("spec_build"):
            job = WORKLOADS[args.workload].build(args.seed, args.scale)
        built = time.perf_counter()
        profiler = cProfile.Profile() if args.trace else None
        with spans.span("calibration"):
            calibration = calibration_s()
        passes = []
        for _ in range(args.passes):
            passes.append(one_pass(jobs, job, spans, calibration, profiler))
            calibration = passes[-1]["segments"][-1][2]
    rss_kb = max(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
        + [facts.pop("max_shard_rss_kb", 0) for facts in passes]
    )
    facts = {
        "passes": passes,
        # Everything before the first pass (less the first calibration),
        # as a segment: with the calibration on each side of it.  A
        # soak's wiring, the rest of its set-up, is in its passes.
        "setup_segment": [built - _PROCESS_START - first, first,
                          passes[0]["segments"][0][1]],
        "peak_rss_mb": rss_kb / 1024.0,
        "spans": spans.rows,
    }
    if profiler:
        facts["profile"] = jobs.fold_profile(profiler)
        # Exhibit cells with literal ops begin ops without drawing, so
        # ops / draws means nothing there (and no grid is sharded).
        facts["key_draws"] = (
            jobs.key_draws(profiler)
            if isinstance(job, jobs.ScenarioSpec) else None
        )
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
