"""Execution traces: operation records and latency accounting inputs.

Protocols append :class:`OperationRecord` entries to a shared
:class:`Trace` as operations are invoked and complete.  The analysis
package consumes these records to check atomicity/agreement and to count
rounds / message delays.

Traces come in two retention modes, mirroring the network's
:class:`~repro.sim.network.TraceLevel`:

* **retaining** (the default, FULL tracing) — every record is kept for
  post-hoc checkers, fingerprints and per-record test assertions;
* **streaming** (``retain=False``, METRICS tracing) — records are handed
  to subscribers as operations begin and complete and then dropped.
  The trace keeps per-kind begun counters and per-kind online
  :class:`~repro.analysis.streaming.LatencyAccumulator` summaries
  (whose ``count`` *is* the completed counter of the kind), so
  horizon-free runs report uniform metrics in O(1) memory per kind
  while never materializing the history.

Both modes maintain the counters and accumulators, so streaming
summaries can be cross-checked against the exact list-based path on
retained runs (``tests/scenarios/test_streaming.py`` pins the match).
:meth:`Trace.complete` is paid by every operation of every run: it
stamps the record, makes one accumulator lookup and one ``observe``,
and calls the subscribers — nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple


@dataclass(slots=True)
class OperationRecord:
    """A single high-level operation (read / write / propose / learn)."""

    op_id: int
    kind: str                      # "write" | "read" | "propose" | "learn"
    process: Hashable              # invoking client / learner
    invoked_at: float
    value: Any = None              # written value / proposal / learned value
    completed_at: Optional[float] = None
    result: Any = None             # read result / decision
    rounds: int = 0                # communication round-trips used
    key: Hashable = 0              # addressed register (storage kinds)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def overlaps(self, other: "OperationRecord") -> bool:
        """Real-time concurrency (operation intervals intersect)."""
        self_end = self.completed_at if self.complete else float("inf")
        other_end = other.completed_at if other.complete else float("inf")
        return self.invoked_at <= other_end and other.invoked_at <= self_end

    def precedes(self, other: "OperationRecord") -> bool:
        """Definition of precedence: completes before the other is invoked."""
        return self.complete and self.completed_at < other.invoked_at


class Trace:
    """Log of operation records for one execution.

    ``retain=False`` is the streaming mode: records are not kept after
    completion (``records`` stays empty); counters, accumulators and
    subscribers observe them instead.
    """

    def __init__(self, retain: bool = True):
        # Deferred import: repro.sim sits below repro.analysis in the
        # layer order, and importing at module scope would cycle back
        # through repro.analysis -> repro.storage -> this module.
        from repro.analysis.streaming import LatencyAccumulator

        self._accumulator_factory = LatencyAccumulator
        self.retain = retain
        self._records: List[OperationRecord] = []
        self._next_id = 0
        self.begun: Dict[str, int] = {}
        self._accumulators: Dict[str, "LatencyAccumulator"] = {}
        self._on_begin: List[Callable[[OperationRecord], None]] = []
        self._on_complete: List[Callable[[OperationRecord], None]] = []

    def subscribe(
        self,
        on_begin: Optional[Callable[[OperationRecord], None]] = None,
        on_complete: Optional[Callable[[OperationRecord], None]] = None,
    ) -> None:
        """Attach streaming observers (e.g. the windowed online checker).

        ``on_begin`` fires when an operation is invoked, ``on_complete``
        when it completes — in simulated-event order, at every retention
        mode.
        """
        if on_begin is not None:
            self._on_begin.append(on_begin)
        if on_complete is not None:
            self._on_complete.append(on_complete)

    def begin(
        self,
        kind: str,
        process: Hashable,
        time: float,
        value: Any = None,
        key: Hashable = 0,
    ) -> OperationRecord:
        record = OperationRecord(
            op_id=self._next_id,
            kind=kind,
            process=process,
            invoked_at=time,
            value=value,
            key=key,
        )
        self._next_id += 1
        self.begun[kind] = self.begun.get(kind, 0) + 1
        if self.retain:
            self._records.append(record)
        for observer in self._on_begin:
            observer(record)
        return record

    def complete(
        self,
        record: OperationRecord,
        time: float,
        result: Any = None,
        rounds: int = 0,
    ) -> OperationRecord:
        record.completed_at = time
        record.result = result
        record.rounds = rounds
        # The accumulator's ``count`` is the completed counter of its
        # kind: one bump per operation, in ``observe``.
        try:
            accumulator = self._accumulators[record.kind]
        except KeyError:
            accumulator = self._accumulators[record.kind] = (
                self._accumulator_factory(record.kind)
            )
        accumulator.observe(rounds, time - record.invoked_at)
        for observer in self._on_complete:
            observer(record)
        return record

    # -- counters & streaming summaries ---------------------------------------

    def begun_total(self) -> int:
        """Operations invoked, at any retention mode."""
        return sum(self.begun.values())

    @property
    def completed_counts(self) -> Dict[str, int]:
        """Operations completed, per kind — a view of the per-kind
        accumulators (there is one from a kind's first completion on)."""
        return {
            kind: accumulator.count
            for kind, accumulator in self._accumulators.items()
        }

    def completed_total(self) -> int:
        return sum(acc.count for acc in self._accumulators.values())

    def accumulator(self, kind: str) -> Optional[LatencyAccumulator]:
        """The online latency summary for one kind (None before the
        first completion of that kind)."""
        return self._accumulators.get(kind)

    # -- retained records ------------------------------------------------------

    @property
    def records(self) -> Tuple[OperationRecord, ...]:
        return tuple(self._records)

    def of_kind(self, kind: str) -> Tuple[OperationRecord, ...]:
        return tuple(r for r in self._records if r.kind == kind)

    def completed(self) -> Tuple[OperationRecord, ...]:
        return tuple(r for r in self._records if r.complete)

    def __len__(self) -> int:
        return self.begun_total()
