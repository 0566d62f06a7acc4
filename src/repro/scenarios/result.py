"""The result of running one scenario.

:class:`RunResult` bundles the execution trace with latency metrics and
correctness verdicts.  Checkers are *lazy* — the register or consensus
check only runs when its property is first read, so cheap smoke runs
pay nothing for verdicts they never look at.

Results report uniformly across retention modes.  On record-keeping
runs (``RECORDS``, the default, and ``FULL``) the record-backed surface
(``records``/``atomicity``/``latency``) is exact and post-hoc —
``atomicity`` is the streaming register checker replayed over the
records, so both modes carry one report type, judged by one set of
rules; on streaming runs (``TraceLevel.METRICS``) the history was
never materialized, so the record-backed verdicts raise with guidance
and the streaming surface takes over: per-kind begun/completed counts
(:meth:`ops_begun`/:meth:`ops_completed`), accumulator-backed latency
summaries (``latency`` falls through to the online path), and the
windowed online safety verdict (:attr:`online`).

Every result is a fleet of :class:`ShardOutcome` records, one per
process that ran a part of it, and :class:`ResultSurface` answers every
streaming question once, over them: a plain :class:`RunResult` is a
fleet of one (its outcome read off the live adapter),
:class:`~repro.scenarios.sharding.ShardedRunResult` the outcomes its
workers sent home.
:func:`soak_row` is the one flat projection of a streamed result that
every soak table (the default sweep measure, every row of
``benchmarks/bench_workload.py``) is cut from.
"""

from __future__ import annotations

import resource
import sys
from functools import cached_property
from typing import (TYPE_CHECKING, Any, Dict, Hashable, List, Optional,
                    Sequence, Tuple)

from repro.analysis.streaming import (
    MAX_REPORTED,
    LatencyAccumulator,
    OnlineRefusal,
    OnlineReport,
    check_history,
)
from repro.errors import CheckerError
from repro.records import record
from repro.sim.trace import OperationRecord
from repro.storage.history import DEFAULT_KEY

if TYPE_CHECKING:
    from repro.analysis.consensus_check import ConsensusReport
    from repro.analysis.latency import LatencySummary


def peak_rss_kb() -> int:
    """This process's peak resident set in KiB (``ru_maxrss`` is KiB on
    Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return peak


@record
class ShardOutcome:
    """What one process reports of a run: its counters, latency
    accumulators, online verdict or refusal, server history stats,
    execute-phase wall / CPU seconds and peak RSS — plain picklable data
    plus the live accumulators, so a shard's worker sends it home."""

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


def _merge_online(
    outcomes: Sequence[ShardOutcome],
) -> Tuple[Optional[OnlineReport], Optional[OnlineRefusal]]:
    """One aggregate verdict, or a structured refusal if any shard ran
    unchecked — a sharded soak never passes vacuously.  A fleet of one
    reports its own verdict or refusal unchanged."""
    if len(outcomes) == 1:
        return outcomes[0].online, outcomes[0].online_refusal
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


class ResultSurface:
    """What a run reports however many processes executed it.

    Every question here is answered once, over :attr:`outcomes` — one
    :class:`ShardOutcome` per process that ran a part of it: the
    counters (``ops_begun`` / ``ops_completed`` / ``op_kinds`` /
    ``messages`` / ``events_processed``), the verdict (``online`` /
    ``online_refusal``), ``server_history``, ``latency_streaming`` and
    the fleet questions.  A fleet of one reports its outcome unchanged.
    Each class provides ``outcomes``, ``blocked``, ``streamed``,
    ``execute_seconds`` and ``worker_processes``; :func:`soak_row` is
    the flat digest of either.
    """

    outcomes: Tuple[ShardOutcome, ...]

    @property
    def n_shards(self) -> int:
        return len(self.outcomes)

    def op_kinds(self) -> Tuple[str, ...]:
        """Operation kinds begun during this run, sorted."""
        return tuple(sorted({k for o in self.outcomes for k in o.begun}))

    def ops_begun(self, kind: Optional[str] = None) -> int:
        """Operations invoked (one kind, or all) — counter-backed, so
        exact at every retention mode."""
        if kind is None:
            return sum(sum(o.begun.values()) for o in self.outcomes)
        return sum(o.begun.get(kind, 0) for o in self.outcomes)

    def ops_completed(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(sum(o.completed.values()) for o in self.outcomes)
        return sum(o.completed.get(kind, 0) for o in self.outcomes)

    @property
    def events_processed(self) -> int:
        """Simulator events consumed by the execute phase."""
        return sum(o.events for o in self.outcomes)

    @property
    def messages(self) -> int:
        """Messages the network was handed (delivered or not)."""
        return sum(o.messages for o in self.outcomes)

    @property
    def online(self) -> Optional[OnlineReport]:
        """The windowed online checker's verdict, when one was wired
        (streaming RandomMix storage runs — SW or MW mode); else None,
        with :attr:`online_refusal` naming the reason."""
        return _merge_online(self.outcomes)[0]

    @property
    def online_refusal(self) -> Optional[OnlineRefusal]:
        """Why this run carries no online verdict (streamed runs the
        runner declined to wire a checker to, or a fleet with a shard
        that ran unchecked); None when a checker ran or when records
        were retained (``RunResult.atomicity`` replays them, and raises
        for the refusals this would name)."""
        return _merge_online(self.outcomes)[1]

    @property
    def server_history(self) -> Optional[Dict[str, Any]]:
        """Server-side history-matrix accounting (rqs-storage systems,
        benign servers only): retained/GC'd cell counters and the
        ``bounded_history`` flag — the flat-memory exhibit for bounded
        soaks.  None for protocols without a history matrix."""
        parts = [o.server_history for o in self.outcomes]
        if len(parts) == 1:
            return parts[0]
        if any(part is None for part in parts):
            return None
        return {
            "bounded_history": all(part["bounded_history"] for part in parts),
            "retained_cells": sum(part["retained_cells"] for part in parts),
            "max_retained_cells": sum(
                part["max_retained_cells"] for part in parts
            ),
            "gc_removed_cells": sum(
                part["gc_removed_cells"] for part in parts
            ),
        }

    def latency_streaming(self, kind: str) -> LatencySummary:
        """The accumulator-backed summary (available at every mode);
        a fleet's shards merge order-independently."""
        from repro.analysis.latency import LatencySummary

        parts = [o.accumulators[kind] for o in self.outcomes
                 if kind in o.accumulators]
        if len(self.outcomes) > 1 and parts:
            accumulator = LatencyAccumulator.merge(parts)
        else:
            accumulator = parts[0] if parts else None
        return LatencySummary.from_accumulator(accumulator, kind)

    @property
    def shard_rss_kb(self) -> Tuple[int, ...]:
        """Per-shard peak RSS (``ru_maxrss``, KiB on Linux)."""
        return tuple(o.peak_rss_kb for o in self.outcomes)

    @property
    def cpu_seconds(self) -> float:
        """Total CPU seconds of the execute phase across shards."""
        return sum(o.cpu_seconds for o in self.outcomes)

    @property
    def capacity_ops_per_sec(self) -> float:
        """Aggregate capacity: the sum over shards of that shard's
        completed ops per CPU second.  CPU time is immune to
        timesharing, so this measures what the fleet sustains with a
        core per shard even when the host has fewer cores."""
        return sum(
            sum(o.completed.values()) / o.cpu_seconds
            for o in self.outcomes if o.cpu_seconds > 0
        )

    @property
    def imbalance(self) -> float:
        """Shard-load imbalance: ``max / mean`` of per-shard completed
        ops.  ``1.0`` is perfectly balanced (and what one shard reports);
        ``shards`` is the everything-on-one-shard worst case.
        Duration-bounded zipfian soaks surface the key→shard rule's
        quality here (budget-bounded runs split ``max_ops`` evenly by
        construction)."""
        counts = [sum(o.completed.values()) for o in self.outcomes]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 1.0

    @property
    def max_shard_rss_kb(self) -> int:
        return max(self.shard_rss_kb)


#: What a streamed run with no checker wired reports: a refusal, never
#: a pass.
UNCHECKED = {
    "atomic": False, "violations": 0, "keys_checked": 0,
    "checker_max_retained": 0, "checker_mode": "none",
    "overrun_unchecked": 0,
}


def soak_row(result: ResultSurface) -> Dict[str, Any]:
    """The flat row of one streamed run, sharded or not.

    Everything outside ``"host"`` is a pure function of the spec —
    counts, the verdict (:meth:`OnlineReport.as_metrics`), server
    history cells, per-kind simulated latency, the fleet's shape — so two
    backends emit it byte for byte.  ``"host"`` holds what depends on
    the machine and on where the run was dispatched: wall / CPU seconds,
    the rates quoted on them, how many worker processes the shards got
    (``0``: serially, inside a pool worker) and their peak RSS.
    """
    online = result.online
    completed = result.ops_completed()
    history = result.server_history or {}
    row: Dict[str, Any] = {
        "verdict": "unchecked" if online is None else online.verdict,
        "operations": result.ops_begun(),
        "completed": completed,
        "blocked": len(result.blocked),
        "events": result.events_processed,
        "messages": result.messages,
        **(UNCHECKED if online is None else online.as_metrics()),
        "bounded_history": bool(history.get("bounded_history", False)),
        "server_retained_cells": history.get("retained_cells", 0),
        "server_max_retained_cells": history.get("max_retained_cells", 0),
        "server_gc_removed_cells": history.get("gc_removed_cells", 0),
        "shards": result.n_shards,
        "imbalance": round(result.imbalance, 4),
    }
    for kind in result.op_kinds():
        latency = result.latency_streaming(kind)
        if latency.count:
            row[f"{kind}_mean"] = latency.mean_time
            row[f"{kind}_p50"] = latency.p50_time
            row[f"{kind}_p99"] = latency.p99_time
            row[f"{kind}_max"] = latency.max_time
    row["host"] = {
        "workers": result.worker_processes,
        "execute_seconds": round(result.execute_seconds, 4),
        "cpu_seconds": round(result.cpu_seconds, 4),
        "ops_per_sec": round(completed / result.execute_seconds, 1),
        "capacity_ops_per_sec": round(result.capacity_ops_per_sec, 1),
        "shard_rss_kb": list(result.shard_rss_kb),
        "max_shard_rss_kb": result.max_shard_rss_kb,
    }
    return row


class RunResult(ResultSurface):
    """Trace + metrics + verdicts for one executed scenario: a fleet of
    one, whose outcome is read off the live adapter."""

    worker_processes = 1

    def __init__(self, spec, adapter, execute_seconds: float,
                 execute_cpu_seconds: float):
        self.spec = spec
        self.adapter = adapter
        #: Wall seconds of the execute phase; what the benches quote
        #: throughput on.
        self.execute_seconds = execute_seconds
        #: CPU seconds of the execute phase (``time.process_time``) —
        #: immune to timesharing; what :attr:`cpu_seconds` and
        #: :attr:`capacity_ops_per_sec` are quoted on.
        self.execute_cpu_seconds = execute_cpu_seconds

    @property
    def outcomes(self) -> Tuple[ShardOutcome, ...]:
        """This run's one :class:`ShardOutcome`, built from the adapter
        on every read — so the surface stays live while the caller keeps
        driving ``adapter.sim`` — and indexed by the spec's
        ``shard_index`` (0 unsharded)."""
        adapter = self.adapter
        trace = adapter.trace
        completed = trace.completed_counts
        checker = getattr(adapter, "online_checker", None)
        return (ShardOutcome(
            index=self.spec.params.get("shard_index", 0),
            begun=dict(trace.begun),
            completed=completed,
            blocked=self.blocked,
            events=adapter.sim.events_processed,
            messages=adapter.network.sent_count,
            accumulators={kind: trace.accumulator(kind) for kind in completed},
            online=None if checker is None else checker.report(),
            online_refusal=getattr(adapter, "online_refusal", None),
            server_history=adapter.history_stats(),
            execute_seconds=self.execute_seconds,
            cpu_seconds=self.execute_cpu_seconds,
            peak_rss_kb=peak_rss_kb(),
        ),)

    # -- raw execution access -------------------------------------------------

    @property
    def trace(self):
        return self.adapter.trace

    @property
    def records(self) -> Tuple[OperationRecord, ...]:
        return self.adapter.trace.records

    @property
    def completed(self) -> Tuple[OperationRecord, ...]:
        return self.adapter.trace.completed()

    def of_kind(self, kind: str) -> Tuple[OperationRecord, ...]:
        return self.adapter.trace.of_kind(kind)

    @property
    def writes(self) -> Tuple[OperationRecord, ...]:
        return self.of_kind("write")

    @property
    def reads(self) -> Tuple[OperationRecord, ...]:
        return self.of_kind("read")

    @property
    def proposes(self) -> Tuple[OperationRecord, ...]:
        return self.of_kind("propose")

    @property
    def learns(self) -> Tuple[OperationRecord, ...]:
        return self.of_kind("learn")

    def write(self, index: int = 0) -> OperationRecord:
        return self.writes[index]

    def read(self, index: int = 0) -> OperationRecord:
        return self.reads[index]

    @property
    def blocked(self) -> Tuple[str, ...]:
        """Names of the tasks still parked when the run stopped: client
        workloads, and a batched RQS read's stuck write-back groups."""
        return tuple(t.name for t in self.adapter.sim.blocked_tasks())

    @property
    def streamed(self) -> bool:
        """True when operation records were not retained (METRICS)."""
        return not self.adapter.trace.retain

    def _require_records(self, what: str) -> None:
        if self.streamed and self.ops_begun() > len(self._retained()):
            raise CheckerError(
                f"{what} needs retained operation records, but this run "
                f"streamed them (TraceLevel.METRICS discards records as "
                f"operations complete); use RunResult.online for the "
                f"windowed streaming verdict, the ops_begun/ops_completed "
                f"counters, and the accumulator-backed latency summaries "
                f"— or run at TraceLevel.RECORDS"
            )

    def _retained(self) -> Tuple[OperationRecord, ...]:
        return self.adapter.trace.records

    # -- verdicts (lazy) ------------------------------------------------------

    @cached_property
    def atomicity(self) -> OnlineReport:
        """The register checker's verdict over the retained history.

        The streaming checker replayed over the records
        (:func:`~repro.analysis.streaming.check_history`), judging the
        semantics the adapter claims (``"atomic"``, or ``"regular"``
        for ``rqs-regular``); per-register verdicts are
        :attr:`key_verdicts`.  Requires retained records (``RECORDS``
        or above; streamed runs use :attr:`online`) and raises
        :class:`~repro.errors.CheckerError` wherever the adapter refuses
        the checker — consensus rows, unsound multi-writer stamps —
        rather than pass an empty or misordered history.
        """
        self._require_records("the register checker")
        refusal = self.adapter.register_refusal(self.spec)
        if refusal is not None:
            raise CheckerError(
                f"the register checker refuses this run "
                f"({refusal.reason}): {refusal.detail}"
            )
        return check_history(
            self.records,
            mode="sw" if self.spec.n_writers == 1 else "mw",
            claim=self.adapter.claim,
        )

    @property
    def key_verdicts(self) -> Dict[Hashable, bool]:
        """Per-register verdicts of :attr:`atomicity` — key → whether
        the claimed semantics held on it (the sweep-friendly view)."""
        violations = self.atomicity.key_violations
        return {key: key not in violations for key in self.keys}

    @property
    def keys(self) -> Tuple[Hashable, ...]:
        """Register keys addressed by this execution (repr-sorted)."""
        return tuple(sorted(
            {r.key for r in self.records if r.kind in ("write", "read")},
            key=repr,
        ))

    @cached_property
    def consensus(self) -> ConsensusReport:
        """Consensus verdict; Termination is checked against every
        learner the scenario did not crash (use :meth:`check_consensus`
        for custom benign/correct sets)."""
        return self.check_consensus(
            correct_learners=self.adapter.correct_learner_pids()
        )

    def check_consensus(self, **kwargs: Any) -> ConsensusReport:
        """The consensus checker with custom benign/correct sets; a
        storage run refuses (``CheckerError``)."""
        self._require_records("the consensus checker")
        return self.adapter.check_consensus(self.records, **kwargs)

    # -- latency metrics ------------------------------------------------------

    def latency(self, kind: str) -> LatencySummary:
        """The latency summary for one operation kind.

        On record-keeping runs the records are replayed through a fresh
        accumulator that keeps them all (exact quantiles,
        :meth:`LatencySummary.from_records`); streamed runs read the live
        accumulator — the two agree exactly whenever its reservoir holds
        the full stream.
        """
        from repro.analysis.latency import LatencySummary

        if self.streamed:
            return self.latency_streaming(kind)
        return LatencySummary.from_records(self.records, kind)

    @property
    def learned(self) -> Dict[Hashable, Any]:
        """Learner pid → learned value (completed learners only)."""
        return {
            r.process: r.result for r in self.learns if r.complete
        }

    @property
    def learner_delays(self) -> Dict[Hashable, Optional[float]]:
        """Learner pid → message-delay latency from the first propose:
        simulated time over the network's Δ (``None`` for learners that
        never learned)."""
        proposes = self.proposes
        origin = proposes[0].invoked_at if proposes else 0.0
        delays: Dict[Hashable, Optional[float]] = {}
        for pid in self.adapter.learner_pids():
            delays[pid] = None
        for record in self.learns:
            if record.complete:
                delays[record.process] = (
                    (record.completed_at - origin) / self.adapter.network.delta
                )
        return delays

    @property
    def worst_learner_delay(self) -> Optional[float]:
        """Max learner delay, or ``None`` if any learner never learned."""
        delays = self.learner_delays
        if not delays or any(d is None for d in delays.values()):
            return None
        return max(delays.values())

    # -- determinism ----------------------------------------------------------

    def fingerprint(self) -> Tuple:
        """A hashable execution digest for reproducibility assertions.

        Single-key histories keep the historical digest shape
        byte-for-byte; multi-register histories append each record's
        key so per-key schedules are pinned too.  Requires retained
        records (``RECORDS`` or above) — on streamed runs the digest would
        silently collapse to the message count alone, so it refuses
        instead; assert on the streaming counters
        (``ops_begun``/``ops_completed``/``events_processed``/
        ``sent_count``) there.
        """
        self._require_records("fingerprint()")
        keyed = any(
            getattr(r, "key", DEFAULT_KEY) != DEFAULT_KEY
            for r in self.records
        )
        if keyed:
            return tuple(
                (r.kind, r.process, r.invoked_at, r.completed_at,
                 repr(r.result), r.rounds, r.key)
                for r in self.records
            ) + (self.adapter.network.sent_count,)
        return tuple(
            (r.kind, r.process, r.invoked_at, r.completed_at,
             repr(r.result), r.rounds)
            for r in self.records
        ) + (self.adapter.network.sent_count,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResult({self.spec.protocol!r}, "
            f"{len(self.records)} operations, "
            f"{len(self.completed)} completed)"
        )
