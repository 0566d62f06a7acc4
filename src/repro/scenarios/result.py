"""The result of running one scenario.

:class:`RunResult` bundles the execution trace with latency metrics and
correctness verdicts.  Checkers are *lazy* — an atomicity or
linearizability check only runs when its property is first read, so
cheap smoke runs pay nothing for verdicts they never look at.

Results report uniformly across retention modes.  On FULL runs the
record-backed surface (``records``/``atomicity``/``latency``) is exact
and post-hoc; on streaming runs (``TraceLevel.METRICS``) the history was
never materialized, so the record-backed verdicts raise with guidance
and the streaming surface takes over: per-kind begun/completed counts
(:meth:`ops_begun`/:meth:`ops_completed`), accumulator-backed latency
summaries (``latency`` falls through to the online path), and the
windowed online safety verdict (:attr:`online`).  :meth:`summary` is
the mode-independent portable digest.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.analysis.atomicity import (
    AtomicityReport,
    check_swmr_atomicity,
    partition_by_key,
)
from repro.analysis.consensus_check import ConsensusReport, check_consensus
from repro.analysis.latency import LatencySummary, summarize_rounds
from repro.analysis.linearizability import is_linearizable
from repro.analysis.streaming import OnlineRefusal, OnlineReport
from repro.errors import CheckerError
from repro.sim.trace import OperationRecord
from repro.storage.history import DEFAULT_KEY


class RunResult:
    """Trace + metrics + verdicts for one executed scenario."""

    def __init__(self, spec, adapter):
        self.spec = spec
        self.adapter = adapter
        #: Wall seconds of the execute phase (set by the runner); what
        #: the benches quote throughput on.
        self.execute_seconds: Optional[float] = None
        #: CPU seconds of the execute phase (``time.process_time``) —
        #: immune to timesharing, so the fair capacity denominator when
        #: comparing against sharded runs on oversubscribed hosts.
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
        """Names of operations still blocked when the run stopped."""
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
        """Operation kinds begun during this run, sorted — the
        result-shape-independent way to enumerate kinds (mirrored by
        ``ShardedRunResult``)."""
        return tuple(sorted(self.adapter.trace.begun))

    @property
    def events_processed(self) -> int:
        """Simulator events consumed by the execute phase."""
        return self.adapter.sim.events_processed

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
        or when records were retained for the post-hoc checkers."""
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
                f"— or run at TraceLevel.FULL"
            )

    def _retained(self) -> Tuple[OperationRecord, ...]:
        return self.adapter.trace.records

    # -- verdicts (lazy) ------------------------------------------------------

    @cached_property
    def atomicity(self) -> AtomicityReport:
        """Aggregate atomicity verdict over the keyed storage history.

        Registers are checked independently per key (the sum of per-key
        checks); this is the aggregate report — per-register reports
        hang off :attr:`atomicity_by_key`.  Requires retained records
        (FULL tracing); streamed runs use :attr:`online`.
        """
        self._require_records("the post-hoc atomicity checker")
        return check_swmr_atomicity(self.records)

    @property
    def atomicity_by_key(self) -> Dict[Hashable, AtomicityReport]:
        """Per-register atomicity reports, key → report."""
        report = self.atomicity
        if report.by_key:
            return dict(report.by_key)
        keys = self.keys
        return {keys[0] if keys else DEFAULT_KEY: report}

    @property
    def key_verdicts(self) -> Dict[Hashable, bool]:
        """Per-register ``atomic`` booleans (the sweep-friendly view)."""
        return {
            key: rep.atomic for key, rep in self.atomicity_by_key.items()
        }

    @property
    def keys(self) -> Tuple[Hashable, ...]:
        """Register keys addressed by this execution (repr-sorted)."""
        return tuple(partition_by_key(self.records))

    def of_key(self, key: Hashable) -> Tuple[OperationRecord, ...]:
        """This execution's operations on one register."""
        return tuple(
            r for r in self.records
            if r.kind in ("write", "read")
            and getattr(r, "key", DEFAULT_KEY) == key
        )

    @cached_property
    def linearizable(self) -> bool:
        """Wing–Gong linearizability of the register history (small runs);
        keyed histories are decided register-by-register (locality)."""
        self._require_records("the Wing–Gong linearizability checker")
        return is_linearizable(self.records)

    @cached_property
    def consensus(self) -> ConsensusReport:
        """Consensus verdict; Termination is checked against every
        learner the scenario did not crash (use :meth:`check_consensus`
        for custom benign/correct sets)."""
        return self.check_consensus(
            correct_learners=self.adapter.correct_learner_pids()
        )

    def check_consensus(self, **kwargs: Any) -> ConsensusReport:
        self._require_records("the consensus checker")
        return check_consensus(self.records, **kwargs)

    # -- latency metrics ------------------------------------------------------

    def latency(self, kind: str) -> LatencySummary:
        """The latency summary for one operation kind.

        Record-backed (exact quantiles) on FULL runs; falls through to
        the streaming accumulator on streamed runs — the two paths
        agree exactly whenever the accumulator's reservoir holds the
        full stream.
        """
        if self.streamed:
            return self.latency_streaming(kind)
        return summarize_rounds(self.records, kind)

    def latency_streaming(self, kind: str) -> LatencySummary:
        """The accumulator-backed summary (available at every mode)."""
        return LatencySummary.from_accumulator(
            self.adapter.trace.accumulator(kind), kind
        )

    def summary(self) -> Dict[str, Any]:
        """A portable mode-independent digest of this execution:
        per-kind op counts and streaming latency summaries, message
        volume, and whichever safety verdict this mode carries."""
        trace = self.adapter.trace
        kinds = sorted(trace.begun)
        out: Dict[str, Any] = {
            "operations": self.ops_begun(),
            "completed": self.ops_completed(),
            "blocked": len(self.blocked),
            "messages": self.adapter.network.sent_count,
            "kinds": {
                kind: {
                    "begun": self.ops_begun(kind),
                    "completed": self.ops_completed(kind),
                    "latency": self.latency_streaming(kind),
                }
                for kind in kinds
            },
        }
        online = self.online
        if online is not None:
            out["verdict"] = online.verdict
            out["verdict_source"] = "online-windowed"
            out["checker_mode"] = online.mode
            out["keys_checked"] = len(online.keys)
            out["violations"] = online.violation_count
        elif not self.streamed:
            out["verdict_source"] = "post-hoc"
        else:
            out["verdict_source"] = "unchecked"
            refusal = self.online_refusal
            if refusal is not None:
                out["online_refusal"] = refusal.reason
        return out

    @property
    def learned(self) -> Dict[Hashable, Any]:
        """Learner pid → learned value (completed learners only)."""
        return {
            r.process: r.result for r in self.learns if r.complete
        }

    @property
    def learner_delays(self) -> Dict[Hashable, Optional[float]]:
        """Learner pid → message-delay latency from the first propose
        (``None`` for learners that never learned)."""
        proposes = self.proposes
        origin = proposes[0].invoked_at if proposes else 0.0
        delays: Dict[Hashable, Optional[float]] = {}
        for pid in self.adapter.learner_pids():
            delays[pid] = None
        for record in self.learns:
            if record.complete:
                delays[record.process] = (
                    (record.completed_at - origin) / self.spec.delta
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
        records (FULL tracing) — on streamed runs the digest would
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
