"""Latency accounting: per-kind round and completion-time summaries.

Storage operations self-report their round count (the protocol counts
rounds as it runs).  Consensus latency in message delays is read off a
run, not summarized here:
:attr:`repro.scenarios.result.RunResult.learner_delays` derives it from
simulated time under a uniform per-hop delay ``Δ`` —
``delays = (t_learn − t_first_propose) / Δ``, exact when every link has
the same latency, which is how the best-case benches are configured.

Summaries have one producer, an online
:class:`~repro.analysis.streaming.LatencyAccumulator`
(:meth:`LatencySummary.from_accumulator`): the live one a streamed run
(METRICS trace) fed as operations completed, or — on a record-keeping
run — a fresh one the retained records are replayed through, its
reservoir sized to hold them all so the quantiles are exact
(:meth:`LatencySummary.from_records`).  The list-based summary it
replaced is the reference of ``tests/analysis/test_streaming.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.streaming import LatencyAccumulator
from repro.records import record
from repro.sim.trace import OperationRecord


@record(frozen=True)
class LatencySummary:
    """Aggregated latency numbers for one operation kind.

    ``p50_time``/``p99_time`` are nearest-rank percentiles of the
    completion-time distribution — exact from retained records, a
    bounded-reservoir estimate on streamed runs past the reservoir
    capacity.
    """

    kind: str
    count: int
    min_rounds: Optional[int]
    max_rounds: Optional[int]
    mean_rounds: Optional[float]
    min_time: Optional[float]
    max_time: Optional[float]
    mean_time: Optional[float] = None
    p50_time: Optional[float] = None
    p99_time: Optional[float] = None

    def row(self) -> str:
        return (
            f"{self.kind:<8} n={self.count:<4} "
            f"rounds[min/mean/max]={self.min_rounds}/"
            f"{self.mean_rounds}/{self.max_rounds} "
            f"time[min/p50/p99/max]={self.min_time}/{self.p50_time}/"
            f"{self.p99_time}/{self.max_time}"
        )

    @classmethod
    def from_accumulator(
        cls, accumulator: Optional[LatencyAccumulator], kind: str = ""
    ) -> "LatencySummary":
        """The streaming summary of one online accumulator.

        ``None`` (no completion of that kind was ever observed) maps to
        the same empty summary the list-based path produces.
        """
        if accumulator is None or not accumulator.count:
            return cls(kind, 0, None, None, None, None, None)
        return cls(
            kind=accumulator.kind or kind,
            count=accumulator.count,
            min_rounds=accumulator.min_rounds,
            max_rounds=accumulator.max_rounds,
            mean_rounds=accumulator.mean_rounds,
            min_time=accumulator.min_time,
            max_time=accumulator.max_time,
            mean_time=accumulator.mean_time,
            p50_time=accumulator.quantile(0.50),
            p99_time=accumulator.quantile(0.99),
        )

    @classmethod
    def from_records(
        cls, records: Iterable[OperationRecord], kind: str
    ) -> "LatencySummary":
        """The summary of a retained history's completed ``kind``
        operations: replayed through a fresh accumulator whose reservoir
        holds every one of them (exact quantiles)."""
        done = [r for r in records if r.kind == kind and r.complete]
        accumulator = LatencyAccumulator(kind, capacity=max(len(done), 1))
        for record in done:
            accumulator.observe(
                record.rounds, record.completed_at - record.invoked_at, 1
            )
        return cls.from_accumulator(accumulator, kind)
