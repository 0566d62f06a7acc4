"""The sharded multi-process soak engine.

Single-writer registers are independent by construction — the per-key
verdict partitioning and the windowed online checker already exploit
this — so a streamed keyed open-loop ``RandomMix`` soak (``duration``
or ``max_ops``; a spec refuses ``shards > 1`` without one) partitions
across worker processes without coordination.  :func:`run_sharded`
splits a spec with ``shards > 1`` into per-key-shard sub-specs, runs
each shard's simulator in its own process, and merges the per-shard
streaming surfaces into one :class:`ShardedRunResult` — the same
:class:`~repro.scenarios.result.ResultSurface` a streamed
:class:`~repro.scenarios.result.RunResult` presents as a fleet of one.

**The key→shard rule.**
:func:`~repro.scenarios.workloads.shard_assignment` maps every key of
``range(n_keys)`` to a shard as a pure function of ``(seed, n_keys,
distribution, skew, shards)``, balancing *expected load* rather than
key counts: uniform mixes keep the historical crc32 rule
(``key -> crc32(f"shard:{seed}:{key!r}") % shards`` — bit-identical to
every pre-weighted sharded run), while zipfian mixes spread the hot
keys with a greedy LPT bin-pack over the exact Fraction draw weights
``1/(k+1)**skew``, so a skewed soak keeps its shards near-evenly
loaded (:attr:`ShardedRunResult.imbalance`).  Either way the rule is
deterministic, derived from the spec, and independent of the op
stream.  Every shard's open-loop generators
(:func:`~repro.scenarios.workloads.open_loop_stream`) consume the
*full* seeded draw (identical gaps, keys, and value serials as the
unsharded run) and yield only in-shard operations, so the union of the
shard schedules is a fixed partition of the unsharded schedule — the
basis of the equivalence tests.

**Collection.**  Each shard index is one item of :func:`map_in_pool`,
the package's one process pool (one worker per shard, each handed the
spec by fork inside the mapped function); its
:class:`ShardOutcome` — per-kind op counters, latency accumulators, the
shard's online verdict, server history stats, CPU seconds, and peak RSS
— comes home in shard order.  A worker that dies fails the run with a
:class:`~repro.errors.ScenarioError` and nothing is merged; an
exception raised inside a worker reaches the caller naming the shard.
A ``shards > 1`` :class:`~repro.scenarios.spec.ScenarioSpec` loads the
pool stack when it is built, so a sharded run pays the import in its
set-up and every other run never pays it.

**Merge semantics.**  Counters and Fraction-exact latency sums add;
reservoirs merge order-independently
(:meth:`~repro.analysis.streaming.QuantileReservoir.merge`); the merged
online verdict sums checked/violation counts (per key too) over the
repr-sorted key union, and REFUSES — ``online is None`` with a structured
``shard-refused`` :class:`~repro.analysis.streaming.OnlineRefusal` —
if *any* shard ran unchecked.  A sharded soak never passes vacuously.

**Throughput accounting.**  Each worker reports
``time.process_time()`` CPU seconds, immune to timesharing, so
``capacity_ops_per_sec`` (the sum over shards of ``completed /
cpu_seconds``) measures aggregate capacity even on hosts with fewer
cores than shards; wall-clock ops/sec is reported alongside.

A daemonic process (a worker of the stdlib's ``Pool``) cannot fork, so
there the shards run serially in-process with identical results; a
multiprocessing ``run_grid`` worker is not daemonic and forks them.
"""

from __future__ import annotations

import time
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.analysis.streaming import (
    MAX_REPORTED,
    LatencyAccumulator,
    OnlineRefusal,
    OnlineReport,
)
from repro.errors import ScenarioError
from repro.records import record
from repro.scenarios.registry import get_protocol
from repro.scenarios.result import ResultSurface
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:
    from repro.analysis.latency import LatencySummary


def split_max_ops(max_ops: Optional[int], shards: int) -> List[Optional[int]]:
    """Partition an op budget over shards (first shards absorb the
    remainder); ``None`` (duration-bounded run) stays ``None``."""
    if max_ops is None:
        return [None] * shards
    base, extra = divmod(max_ops, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def shard_spec(spec: ScenarioSpec, index: int) -> ScenarioSpec:
    """The single-process sub-spec executing shard ``index``.

    ``shards`` drops back to 1 (no re-dispatch) and the shard view
    moves into params, where the storage adapter threads it into the
    workload generators.
    """
    allotment = split_max_ops(spec.max_ops, spec.shards)
    params = dict(spec.params)
    params["shard_index"] = index
    params["shard_count"] = spec.shards
    return spec.with_(
        shards=1, max_ops=allotment[index], params=params
    )


@record
class ShardOutcome:
    """Everything one shard's worker sends home — the full streaming
    surface of its :class:`RunResult`, flattened to plain picklable
    data plus the live accumulators."""

    index: int
    begun: Dict[str, int]
    completed: Dict[str, int]
    blocked: Tuple[str, ...]
    events: int
    messages: int
    accumulators: Dict[str, LatencyAccumulator]
    online: Optional[OnlineReport]
    online_refusal: Optional[OnlineRefusal]
    server_history: Optional[Dict[str, Any]] = None
    execute_seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_kb: int = 0


def _run_shard(spec: ScenarioSpec, index: int) -> ShardOutcome:
    """Execute shard ``index`` of a sharded spec in this process."""
    from repro.scenarios.runner import run

    try:
        result = run(shard_spec(spec, index))
    except Exception as exc:
        # Raised here so the pooled and the serial path name the shard
        # alike; the executor re-raises it in the parent.
        raise ScenarioError(
            f"shard {index} of {spec.shards} failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    trace = result.adapter.trace
    completed = trace.completed_counts
    return ShardOutcome(
        index=index,
        begun=dict(trace.begun),
        completed=completed,
        blocked=result.blocked,
        events=result.events_processed,
        messages=result.messages,
        accumulators={kind: trace.accumulator(kind) for kind in completed},
        online=result.online,
        online_refusal=result.online_refusal,
        server_history=result.server_history,
        execute_seconds=result.execute_seconds or 0.0,
        cpu_seconds=result.cpu_seconds,
        peak_rss_kb=result.max_shard_rss_kb,
    )


# -- merging ------------------------------------------------------------------


def _merge_online(
    outcomes: List[ShardOutcome],
) -> Tuple[Optional[OnlineReport], Optional[OnlineRefusal]]:
    """One aggregate verdict, or a structured refusal if any shard ran
    unchecked — a sharded soak never passes vacuously."""
    unchecked = [o for o in outcomes if o.online is None]
    if unchecked:
        details = "; ".join(
            f"shard {o.index}: "
            + (o.online_refusal.reason if o.online_refusal else "no-verdict")
            for o in unchecked
        )
        return None, OnlineRefusal(
            "shard-refused",
            f"{len(unchecked)}/{len(outcomes)} shards carry no online "
            f"verdict ({details}); the merged soak refuses rather than "
            f"pass vacuously",
        )
    reports = [o.online for o in outcomes]
    violations: List[Any] = []
    key_violations: Dict[Any, int] = {}
    for report in reports:
        violations.extend(report.violations)
        for key, count in report.key_violations.items():
            key_violations[key] = key_violations.get(key, 0) + count
    keys = sorted(
        {key for report in reports for key in report.keys}, key=repr
    )
    return OnlineReport(
        checked_writes=sum(r.checked_writes for r in reports),
        checked_reads=sum(r.checked_reads for r in reports),
        violation_count=sum(r.violation_count for r in reports),
        violations=tuple(violations[:MAX_REPORTED]),
        keys=tuple(keys),
        # Shards peak independently, so the sum is an upper bound on
        # simultaneous retention — conservative for the flat-memory gate.
        max_retained=sum(r.max_retained for r in reports),
        overrun_unchecked=sum(r.overrun_unchecked for r in reports),
        # Every shard ran the same spec.
        mode=reports[0].mode,
        key_violations=key_violations,
        claim=reports[0].claim,
    ), None


def _merge_server_history(
    outcomes: List[ShardOutcome],
) -> Optional[Dict[str, Any]]:
    parts = [o.server_history for o in outcomes]
    if any(part is None for part in parts):
        return None
    return {
        "bounded_history": all(part["bounded_history"] for part in parts),
        "retained_cells": sum(part["retained_cells"] for part in parts),
        "max_retained_cells": sum(
            part["max_retained_cells"] for part in parts
        ),
        "gc_removed_cells": sum(part["gc_removed_cells"] for part in parts),
    }


def _merge_accumulators(
    outcomes: List[ShardOutcome],
) -> Dict[str, LatencyAccumulator]:
    kinds = sorted({kind for o in outcomes for kind in o.accumulators})
    return {
        kind: LatencyAccumulator.merge(
            [o.accumulators[kind] for o in outcomes
             if kind in o.accumulators]
        )
        for kind in kinds
    }


class ShardedRunResult(ResultSurface):
    """The merged result of a sharded soak: the streaming surface of
    :class:`~repro.scenarios.result.RunResult` (op counters, online
    verdict/refusal, accumulator-backed latency, server history) over
    the per-shard outcomes; the fleet questions are
    :class:`~repro.scenarios.result.ResultSurface`'s."""

    #: A fleet never retains records.
    streamed = True

    def __init__(self, spec: ScenarioSpec, outcomes: List[ShardOutcome],
                 worker_processes: int, started: Optional[float] = None):
        self.spec = spec
        self.outcomes = sorted(outcomes, key=lambda o: o.index)
        self.n_shards = len(self.outcomes)
        #: Worker processes actually used (0 = the shards ran serially
        #: in-process, as a daemonic caller cannot fork).
        self.worker_processes = worker_processes
        self._online, self._online_refusal = _merge_online(self.outcomes)
        self._accumulators = _merge_accumulators(self.outcomes)
        #: Parent wall seconds for the whole sharded execute phase —
        #: fork, shards, IPC and this merge — since ``started``
        #: (``run_sharded``'s ``perf_counter``); a fleet merged from
        #: outcomes alone reads its slowest shard's.
        self.execute_seconds: float = (
            max((o.execute_seconds for o in self.outcomes), default=0.0)
            if started is None else time.perf_counter() - started
        )

    # -- streaming surface (mirrors RunResult) --------------------------------

    def op_kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({k for o in self.outcomes for k in o.begun}))

    def ops_begun(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(sum(o.begun.values()) for o in self.outcomes)
        return sum(o.begun.get(kind, 0) for o in self.outcomes)

    def ops_completed(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(sum(o.completed.values()) for o in self.outcomes)
        return sum(o.completed.get(kind, 0) for o in self.outcomes)

    @property
    def online(self) -> Optional[OnlineReport]:
        return self._online

    @property
    def online_refusal(self) -> Optional[OnlineRefusal]:
        return self._online_refusal

    @property
    def server_history(self) -> Optional[Dict[str, Any]]:
        return _merge_server_history(self.outcomes)

    @property
    def blocked(self) -> Tuple[str, ...]:
        return tuple(
            f"shard{o.index}:{name}"
            for o in self.outcomes for name in o.blocked
        )

    @property
    def events_processed(self) -> int:
        return sum(o.events for o in self.outcomes)

    @property
    def messages(self) -> int:
        return sum(o.messages for o in self.outcomes)

    def latency_streaming(self, kind: str) -> LatencySummary:
        from repro.analysis.latency import LatencySummary

        return LatencySummary.from_accumulator(
            self._accumulators.get(kind), kind
        )

    @property
    def shard_rss_kb(self) -> Tuple[int, ...]:
        """Per-shard worker peak RSS (``ru_maxrss``, KiB on Linux)."""
        return tuple(o.peak_rss_kb for o in self.outcomes)

    def _loads(self) -> Tuple[Tuple[int, float], ...]:
        return tuple(
            (sum(o.completed.values()), o.cpu_seconds)
            for o in self.outcomes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedRunResult({self.spec.protocol!r}, "
            f"{self.n_shards} shards, {self.ops_completed()} completed)"
        )


# -- the executor -------------------------------------------------------------


#: The function the pool's workers map, set by :func:`map_in_pool`
#: before it forks them.  One slot, saved and restored around each pool:
#: a grid worker that forks a sharded cell's shards gets its own cell
#: function back for its next cell.  (One slot per process, so a
#: process maps one pool at a time, as every caller here does.)
_POOL_FN: Optional[Callable] = None


def _pool_call(item: Any) -> Any:
    return _POOL_FN(item)


def map_in_pool(
    fn: Callable, items: Iterable, workers: int, lost: str,
    chunksize: int = 1,
) -> Tuple[Tuple[Any, ...], int]:
    """``tuple(map(fn, items))`` on ``workers`` processes (items go in
    contiguous runs of ``chunksize``), and the number of processes used.

    The package's one process pool: a fork-context
    ``ProcessPoolExecutor`` (a worker inherits the parent's imports; a
    ``-c`` or stdin parent has no ``__main__`` to re-import).  ``fn``
    reaches the workers by fork, through :data:`_POOL_FN`, so a closure
    over a payload that does not pickle travels there; only ``items``
    and the results are pickled.  A worker that dies raises a
    :class:`~repro.errors.ScenarioError` reading ``lost`` — never a
    hang, never a partial list.  A daemonic caller cannot fork: it maps
    in-process and reports 0 processes.
    """
    global _POOL_FN
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if multiprocessing.current_process().daemon:
        return tuple(map(fn, items)), 0
    saved, _POOL_FN = _POOL_FN, fn
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            return (tuple(pool.map(_pool_call, items, chunksize=chunksize)),
                    workers)
    except BrokenProcessPool as exc:
        raise ScenarioError(lost) from exc
    finally:
        _POOL_FN = saved


def run_sharded(spec: ScenarioSpec) -> ShardedRunResult:
    """Execute a ``shards > 1`` spec across one worker process per shard.

    Each shard runs its own simulator over the full seeded draw,
    filtered to its key shard; outcomes come home from
    :func:`map_in_pool` in shard order and merge order-independently.
    A worker that dies (or raises) fails the run with a
    :class:`ScenarioError` — never a hang, never a partial merge.
    Inside a daemonic process (which cannot fork) the shards run
    serially in-process instead — same outcomes, same merge.
    """
    if spec.shards < 2:
        raise ScenarioError(
            f"run_sharded needs shards >= 2, got {spec.shards}; "
            f"use run(spec) for single-process execution"
        )
    adapter_cls = get_protocol(spec.protocol)
    if getattr(adapter_cls, "kind", "") != "storage":
        raise ScenarioError(
            f"sharded execution partitions independent registers; "
            f"protocol {spec.protocol!r} is not a storage protocol"
        )
    start = time.perf_counter()
    outcomes, workers = map_in_pool(
        partial(_run_shard, spec), range(spec.shards), spec.shards,
        lost=f"a shard worker of {spec.protocol!r} x {spec.shards} died "
        f"before reporting its outcome; nothing is merged",
    )
    return ShardedRunResult(
        spec, outcomes, worker_processes=workers, started=start
    )
