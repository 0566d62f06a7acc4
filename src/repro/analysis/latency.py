"""Latency accounting: per-kind round and completion-time summaries.

Storage operations self-report their round count (the protocol counts
rounds as it runs).  Consensus latency in message delays is read off a
run, not summarized here:
:attr:`repro.scenarios.result.RunResult.learner_delays` derives it from
simulated time under a uniform per-hop delay ``Δ`` —
``delays = (t_learn − t_first_propose) / Δ``, exact when every link has
the same latency, which is how the best-case benches are configured.

Summaries have two equivalent producers: the list-based
:func:`summarize_rounds` over retained records (FULL traces), and the
streaming :meth:`LatencySummary.from_accumulator` over an online
:class:`~repro.analysis.streaming.LatencyAccumulator` (METRICS traces,
where the history is never materialized).  Whenever the accumulator's
quantile reservoir still holds the full stream the two paths agree
exactly — pinned by ``tests/scenarios/test_streaming.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from statistics import mean
from typing import Iterable, Optional

from repro.analysis.streaming import LatencyAccumulator, nearest_rank
from repro.sim.trace import OperationRecord


@dataclass(frozen=True)
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


def summarize_rounds(
    records: Iterable[OperationRecord], kind: str
) -> LatencySummary:
    """Aggregate the self-reported round counts of completed operations."""
    done = [r for r in records if r.kind == kind and r.complete]
    if not done:
        return LatencySummary(kind, 0, None, None, None, None, None)
    rounds = [r.rounds for r in done]
    times = sorted(r.completed_at - r.invoked_at for r in done)
    # Exact rational mean, like the streaming accumulator's running sum,
    # so the two paths cannot drift by float-summation order.
    mean_time = float(sum(map(Fraction, times)) / len(times))
    return LatencySummary(
        kind=kind,
        count=len(done),
        min_rounds=min(rounds),
        max_rounds=max(rounds),
        mean_rounds=round(mean(rounds), 3),
        min_time=times[0],
        max_time=times[-1],
        mean_time=round(mean_time, 6),
        p50_time=nearest_rank(times, 0.50),
        p99_time=nearest_rank(times, 0.99),
    )

