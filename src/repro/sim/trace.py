"""Execution traces: operation records and latency accounting inputs.

Protocols append :class:`OperationRecord` entries to a shared
:class:`Trace`; the analysis package checks atomicity / agreement and
counts rounds and message delays on them.  Records enter and leave in
**waves** — the records one client begins, or completes, at one
instant, in element order: a batch, or the part of one that completes
together; any other operation is a wave of one.  :meth:`Trace.begin`
and :meth:`Trace.complete` are the only entry points and observers take
whole waves, so a 16-element batch costs each layer one call.

``retain=True`` (FULL tracing) keeps every record for post-hoc
checkers, fingerprints and test assertions; ``retain=False`` (METRICS)
hands records to subscribers and drops them.  Both keep per-kind begun
counters, completion waves by size and an online
:class:`~repro.analysis.streaming.LatencyAccumulator` per kind (its
``count`` *is* the kind's completed counter), so a horizon-free run
reports in O(1) memory per kind, and the streaming summaries can be
held to the list-based ones on retained runs
(``tests/scenarios/test_streaming.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)


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

    def precedes(self, other: "OperationRecord") -> bool:
        """Definition of precedence: completes before the other is invoked."""
        return self.complete and self.completed_at < other.invoked_at


#: A trace subscriber: called with each wave of records.
Observer = Callable[[List[OperationRecord]], None]


class Trace:
    """Log of operation records for one execution (``retain=False``:
    none kept — counters, accumulators and subscribers see them)."""

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
        # kind -> its online latency summary and its completion waves
        # by size (one lookup a wave finds both).
        self._kinds: Dict[str, Tuple[LatencyAccumulator, Dict[int, int]]] = {}
        self._on_begin: List[Observer] = []
        self._on_complete: List[Observer] = []

    def subscribe(
        self,
        on_begin: Optional[Observer] = None,
        on_complete: Optional[Observer] = None,
    ) -> None:
        """Attach streaming observers (e.g. the windowed online checker).

        ``on_begin`` is called with each wave of records as it is
        invoked, ``on_complete`` with each wave as it completes — in
        simulated-event order, at every retention mode.
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
        elems: Sequence[Tuple[Any, Hashable]],
    ) -> List[OperationRecord]:
        """Invoke one wave: a ``kind`` record per ``(value, key)`` of
        ``elems``, in element order, all by ``process`` at ``time``
        (``value`` is ``None`` for reads and learns, ``key`` 0 outside
        the keyed register space)."""
        first = op_id = self._next_id
        records = []
        for value, key in elems:
            records.append(
                OperationRecord(op_id, kind, process, time, value, key=key)
            )
            op_id += 1
        self._next_id = op_id
        self.begun[kind] = self.begun.get(kind, 0) + op_id - first
        if self.retain:
            self._records.extend(records)
        for observer in self._on_begin:
            observer(records)
        return records

    def complete(
        self,
        records: Sequence[OperationRecord],
        time: float,
        results: Sequence[Any],
        rounds: int,
    ) -> None:
        """Complete one wave: ``records`` — of one kind, begun together
        (so one elapsed time) — finish at ``time`` after ``rounds``
        round-trips, returning ``results`` (element-wise)."""
        # ``size`` indexes the results as it counts the wave: a ``zip``
        # costs more than the rest of this loop on a wave of one — the
        # wave almost every op is.
        size = 0
        for record in records:
            record.completed_at = time
            record.result = results[size]
            record.rounds = rounds
            size += 1
        kind = record.kind
        try:
            accumulator, waves = self._kinds[kind]
        except KeyError:
            accumulator, waves = self._kinds[kind] = (
                self._accumulator_factory(kind), {}
            )
        accumulator.observe(rounds, time - record.invoked_at, size)
        waves[size] = waves.get(size, 0) + 1
        for observer in self._on_complete:
            observer(records)

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
            for kind, (accumulator, _) in self._kinds.items()
        }

    def completed_total(self) -> int:
        return sum(acc.count for acc, _ in self._kinds.values())

    def accumulator(self, kind: str) -> Optional[LatencyAccumulator]:
        """The online latency summary for one kind (None before the
        first completion of that kind)."""
        entry = self._kinds.get(kind)
        return entry[0] if entry else None

    def waves(self, kind: str) -> Dict[int, int]:
        """The completion waves of one kind by size, ``{size: count}``
        in ascending size; the sizes weighted by the counts sum to the
        kind's completed operations."""
        entry = self._kinds.get(kind)
        return dict(sorted(entry[1].items())) if entry else {}

    # -- retained records ------------------------------------------------------

    @property
    def records(self) -> Tuple[OperationRecord, ...]:
        return tuple(self._records)

    def of_kind(self, kind: str) -> Tuple[OperationRecord, ...]:
        return tuple(r for r in self._records if r.kind == kind)

    def completed(self) -> Tuple[OperationRecord, ...]:
        return tuple(r for r in self._records if r.complete)
