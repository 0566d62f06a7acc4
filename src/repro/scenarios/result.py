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

Every result is a fleet (:class:`ResultSurface`): a plain
:class:`RunResult` answers the fleet questions as a fleet of one
(``n_shards == 1``, ``imbalance == 1.0``, its own process's peak RSS),
:class:`~repro.scenarios.sharding.ShardedRunResult` for its workers.
:func:`soak_row` is the one flat projection of a streamed result that
every soak table (the default sweep measure, every row of
``benchmarks/bench_workload.py``) is cut from.
"""

from __future__ import annotations

import resource
import sys
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional, Tuple

from repro.analysis.streaming import (
    OnlineRefusal,
    OnlineReport,
    check_history,
)
from repro.errors import CheckerError
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


class ResultSurface:
    """What a run reports however many processes executed it.

    Both result classes provide the counters (``ops_begun`` /
    ``ops_completed`` / ``op_kinds`` / ``blocked`` / ``messages`` /
    ``events_processed``), the verdict (``online`` /
    ``online_refusal`` / ``streamed``), ``server_history``,
    ``latency_streaming``,
    ``execute_seconds``, ``n_shards``, ``worker_processes``,
    ``shard_rss_kb`` and :meth:`_loads`; the fleet questions are
    answered here, once, and :func:`soak_row` is the flat digest of
    either.
    """

    def _loads(self) -> Tuple[Tuple[int, float], ...]:
        """Per shard: ``(completed ops, CPU seconds of its execute
        phase)``."""
        raise NotImplementedError

    @property
    def cpu_seconds(self) -> float:
        """Total CPU seconds of the execute phase across shards."""
        return sum(cpu for _, cpu in self._loads())

    @property
    def capacity_ops_per_sec(self) -> float:
        """Aggregate capacity: the sum over shards of that shard's
        completed ops per CPU second.  CPU time is immune to
        timesharing, so this measures what the fleet sustains with a
        core per shard even when the host has fewer cores."""
        return sum(done / cpu for done, cpu in self._loads() if cpu > 0)

    @property
    def imbalance(self) -> float:
        """Shard-load imbalance: ``max / mean`` of per-shard completed
        ops.  ``1.0`` is perfectly balanced (and what one shard reports);
        ``shards`` is the everything-on-one-shard worst case.
        Duration-bounded zipfian soaks surface the key→shard rule's
        quality here (budget-bounded runs split ``max_ops`` evenly by
        construction)."""
        counts = [done for done, _ in self._loads()]
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
    counts, the verdict (``overrun_unchecked``: operations the windowed
    checker skipped, which ``atomic`` does not cover), server history
    cells, per-kind simulated latency, the fleet's shape — so two
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
        **(UNCHECKED if online is None else {
            **online.as_metrics(),
            "overrun_unchecked": online.overrun_unchecked,
        }),
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
    """Trace + metrics + verdicts for one executed scenario."""

    def __init__(self, spec, adapter):
        self.spec = spec
        self.adapter = adapter
        #: Wall seconds of the execute phase (set by the runner); what
        #: the benches quote throughput on.
        self.execute_seconds: Optional[float] = None
        #: CPU seconds of the execute phase (``time.process_time``) —
        #: immune to timesharing; what :attr:`cpu_seconds` and
        #: :attr:`capacity_ops_per_sec` are quoted on.
        self.execute_cpu_seconds: Optional[float] = None

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

    # -- streaming surface (valid at every retention mode) --------------------

    @property
    def streamed(self) -> bool:
        """True when operation records were not retained (METRICS)."""
        return not self.adapter.trace.retain

    def ops_begun(self, kind: Optional[str] = None) -> int:
        """Operations invoked (one kind, or all) — counter-backed, so
        exact at every retention mode."""
        trace = self.adapter.trace
        if kind is None:
            return trace.begun_total()
        return trace.begun.get(kind, 0)

    def ops_completed(self, kind: Optional[str] = None) -> int:
        trace = self.adapter.trace
        if kind is None:
            return trace.completed_total()
        return trace.completed_counts.get(kind, 0)

    def op_kinds(self) -> Tuple[str, ...]:
        """Operation kinds begun during this run, sorted."""
        return tuple(sorted(self.adapter.trace.begun))

    @property
    def events_processed(self) -> int:
        """Simulator events consumed by the execute phase."""
        return self.adapter.sim.events_processed

    @property
    def messages(self) -> int:
        """Messages the network was handed (delivered or not)."""
        return self.adapter.network.sent_count

    # -- a fleet of one -------------------------------------------------------

    n_shards = 1
    worker_processes = 1

    @property
    def shard_rss_kb(self) -> Tuple[int, ...]:
        """This process's peak RSS so far, as the one shard's."""
        return (peak_rss_kb(),)

    def _loads(self) -> Tuple[Tuple[int, float], ...]:
        return ((self.ops_completed(), self.execute_cpu_seconds or 0.0),)

    @property
    def online(self) -> Optional[OnlineReport]:
        """The windowed online checker's verdict, when one was wired
        (streaming RandomMix storage runs — SW or MW mode); else None,
        with :attr:`online_refusal` naming the reason."""
        checker = getattr(self.adapter, "online_checker", None)
        return checker.report() if checker is not None else None

    @property
    def online_refusal(self) -> Optional[OnlineRefusal]:
        """Why this run carries no online verdict (streamed runs the
        runner declined to wire a checker to); None when a checker ran
        or when records were retained (:attr:`atomicity` replays them,
        and raises for the refusals this would name)."""
        if getattr(self.adapter, "online_checker", None) is not None:
            return None
        return getattr(self.adapter, "online_refusal", None)

    @property
    def server_history(self) -> Optional[Dict[str, Any]]:
        """Server-side history-matrix accounting (rqs-storage systems,
        benign servers only): retained/GC'd cell counters and the
        ``bounded_history`` flag — the flat-memory exhibit for bounded
        soaks.  None for protocols without a history matrix."""
        return self.adapter.history_stats()

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

    def latency_streaming(self, kind: str) -> LatencySummary:
        """The accumulator-backed summary (available at every mode)."""
        from repro.analysis.latency import LatencySummary

        return LatencySummary.from_accumulator(
            self.adapter.trace.accumulator(kind), kind
        )

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
