"""Indexed wait conditions — the simulator's O(1) wake-up primitive.

Historically every blocked task carried an opaque ``lambda`` predicate
and the simulator re-evaluated *all* of them after *every* simulated
instant, to a fixpoint — O(parked²) predicate calls per delivery, the
dominant cost of large-``n`` runs.  A :class:`Condition` replaces the
opaque predicate with an object that **signals** the simulator when its
truth value may have changed, so the event loop re-polls only the tasks
whose condition was actually touched this instant (see
:meth:`repro.sim.simulator.Simulator._wake_tasks`).

The catalogue, roughly in order of preference:

* :class:`Event` — a one-way boolean flag ("decision learned").
  :meth:`Simulator.timer_at` hands out :class:`Timer` events for
  deadlines ("timer expired").
* :class:`AckSet` — a growing responder-id set (a real ``set``
  subclass, so quorum code like ``q <= acks`` keeps working); wait on
  :meth:`AckSet.at_least` ("``n − t`` replies collected") or
  :meth:`AckSet.includes_quorum` ("acks from some quorum").
* :class:`Check` — an arbitrary predicate that the owning process
  signals explicitly from the handlers that mutate its inputs.  The
  migration device for waits too entangled for the shapes above
  (the RQS reader's candidate-set predicates, the proposer's consult
  quorum).

There are no composite conditions.  A sequence of waits is a
conjunction: a storage round waits on its ``2Δ`` timer and then on its
quorum, which ends in the same wake pass as a wait on the two together
would.  The concurrent parts of one operation — a batched RQS read's
write-back groups — are tasks of their own, each on its own condition.

A signal is a *hint*, not a wake-up: the simulator re-checks
``holds()`` before resuming waiters, so spurious signals are cheap and
missed-signal bugs surface as deterministic deadlocks (never as
corrupted interleavings).  Conditions whose inputs can only ever be
mutated from simulator events (message handlers, timers) therefore
wake tasks exactly when a loop re-polling every parked task would have.

A count threshold (:meth:`AckSet.at_least`) signals once, when the set
*reaches* it: a set only grows, so before then the threshold is false
and after it stays true — a signal anywhere else would re-poll a task
only to leave it as it was.  A set holds one threshold condition per
``needed`` (asking again returns the same object), so a responder set
reused across rounds stays as small as its distinct thresholds.
:meth:`AckSet.includes_quorum` waits (a :class:`Check`) keep signalling
on every change.

Labels are for people: a set's, a threshold's, a check's and a timer's
are formatted only when read (a ``repr``, a debugger), never on the
simulated path.

:class:`~repro.sim.tasks.WaitUntil` takes nothing but a condition — the
ROADMAP's third invariant; a bare callable is refused.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

_set_add = set.add


class Condition:
    """Base class for indexed wait conditions.

    Subclasses implement :meth:`holds` (the current truth value) and
    call :meth:`signal` from every mutation that may flip it.  The
    simulator attaches itself while tasks are parked on the condition;
    signalling an un-waited condition is a no-op.
    """

    __slots__ = ("_label", "_sim")

    # The conditions a protocol makes per round (thresholds, quorum
    # checks, timers) set these slots in their own __init__ rather than
    # call this one: one call per condition, not two or three.
    def __init__(self, label: str = ""):
        self._label = label
        self._sim = None          # set by the simulator while waited on

    @property
    def label(self) -> str:
        """What the condition waits for (formatted when read)."""
        return self._label

    # -- protocol ----------------------------------------------------------

    def holds(self) -> bool:
        """The condition's current truth value (must be side-effect free)."""
        raise NotImplementedError

    def signal(self) -> None:
        """Tell the simulator this condition may have become true.

        Batched per simulated instant and deduplicated; waiters are
        re-polled (``holds()`` re-checked) after all events of the
        instant have run — preserving the paper's atomic receive
        substep.
        """
        sim = self._sim
        if sim is not None:
            sim._signal(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.label or hex(id(self))})"


class Event(Condition):
    """A one-way boolean flag ("it happened")."""

    __slots__ = ("_set",)

    def __init__(self, label: str = ""):
        super().__init__(label)
        self._set = False

    def set(self) -> None:
        if not self._set:
            self._set = True
            self.signal()

    def holds(self) -> bool:
        return self._set


class Timer(Event):
    """An :class:`Event` that is set at simulated ``time`` (handed out
    by :meth:`Simulator.timer_at`)."""

    __slots__ = ("time",)

    def __init__(self, time: float):
        self._label = ""
        self._sim = None
        self._set = False
        self.time = time

    @property
    def label(self) -> str:
        return f"t>={self.time}"


def _format(template: str, key: Optional[Tuple]) -> str:
    """A container's or a check's label: ``template`` as given, or
    filled with the key — the :class:`ConditionMap` key a container was
    made for, the one a :class:`Check` was given."""
    return template if key is None else template.format(*key)


class Check(Condition):
    """An explicitly-signalled arbitrary predicate.

    The owning process calls :meth:`signal` from every handler that
    mutates the predicate's inputs.  This keeps complicated waits (the
    RQS reader's candidate predicates, the consult-phase quorum search)
    verbatim while still indexing their wake-ups.  Its label is a
    template and the ``key`` that fills it, as an :class:`AckSet`'s is
    (formatted when read).
    """

    __slots__ = ("_predicate", "_key")

    def __init__(
        self,
        predicate: Callable[[], bool],
        label: str = "",
        key: Optional[Tuple] = None,
    ):
        super().__init__(label)
        self._predicate = predicate
        self._key = key

    @property
    def label(self) -> str:
        return _format(self._label, self._key)

    def holds(self) -> bool:
        return self._predicate()


class IncludesQuorum(Check):
    """``contains_quorum(acks)`` (created via
    :meth:`AckSet.includes_quorum`): signalled on every new member."""

    __slots__ = ("_acks",)

    def __init__(
        self, acks: "AckSet", contains_quorum: Callable[["AckSet"], bool]
    ):
        self._label = ""
        self._key = None
        self._sim = None
        self._predicate = partial(contains_quorum, acks)
        self._acks = acks

    @property
    def label(self) -> str:
        return f"{self._acks.label} quorum"


class AckSet(set):
    """A growing responder-id set that signals its wait conditions.

    A real ``set`` subclass, so existing quorum idioms — ``q <= acks``,
    ``len(acks) >= k``, comprehension membership — keep working on it
    unchanged.  Only :meth:`add` is instrumented; protocol responder
    sets are append-only.  A new member signals every
    :meth:`includes_quorum` wait, and the :meth:`at_least` threshold the
    new size reaches, if there is one.
    """

    __slots__ = ("_label", "_key", "_checks", "_thresholds")

    def __init__(self, label: str = "", key: Optional[Tuple] = None):
        super().__init__()
        self._label = label
        self._key = key
        self._checks: List[Condition] = []
        self._thresholds: Dict[int, SizeAtLeast] = {}

    @property
    def label(self) -> str:
        return _format(self._label, self._key)

    def add(self, member: Hashable) -> None:
        if member not in self:
            _set_add(self, member)
            for check in self._checks:
                check.signal()
            threshold = self._thresholds.get(len(self))
            if threshold is not None:
                threshold.signal()

    def at_least(self, needed: int) -> "SizeAtLeast":
        """Wait for the set to reach ``needed`` members (one condition
        per ``needed``, signalled at the crossing)."""
        threshold = self._thresholds.get(needed)
        if threshold is None:
            threshold = self._thresholds[needed] = SizeAtLeast(self, needed)
        return threshold

    def includes_quorum(
        self, contains_quorum: Callable[["AckSet"], bool]
    ) -> IncludesQuorum:
        """Wait until some quorum is fully contained in the set, as
        decided by ``contains_quorum(acks)`` — the quorum system's own
        containment test (``rqs.contains_quorum``)."""
        condition = IncludesQuorum(self, contains_quorum)
        self._checks.append(condition)
        return condition

    def reset(self, label: str = "", key: Optional[Tuple] = None) -> None:
        """Return the set to its freshly-constructed state so a
        :class:`ConditionMap` can recycle it for a new key.  Threshold
        and quorum conditions are orphaned — their waiters must all have
        resumed before the owning key is discarded (the pooling
        contract)."""
        self.clear()
        self._label = label
        self._key = key
        self._checks.clear()
        self._thresholds.clear()


class SizeAtLeast(Condition):
    """``len(acks) >= needed`` (created via :meth:`AckSet.at_least`;
    signalled when the set reaches ``needed`` members)."""

    __slots__ = ("_acks", "_needed")

    def __init__(self, acks: AckSet, needed: int):
        self._label = ""
        self._sim = None
        self._acks = acks
        self._needed = needed

    @property
    def label(self) -> str:
        return f"{self._acks.label}>={self._needed}"

    def holds(self) -> bool:
        return len(self._acks) >= self._needed


class ConditionMap:
    """Lazy keyed factory for signalling containers.

    Protocols keep one :class:`AckSet` per logical key
    (a timestamp, a round, a ballot); this wraps the get-or-create
    boilerplate in one place, and the container keeps the label
    template with its key (formatted only when read)::

        self._acks = ConditionMap(AckSet, "wr ts={} rnd={}")
        ...
        self._acks(ts, rnd).add(src)

    Discarded containers that expose a ``reset`` method (an
    :class:`AckSet` does) are parked on a small free list and recycled by the
    next :meth:`__call__`, so a streaming client allocates O(pool) ack
    sets over a million-op run instead of one per operation.
    """

    __slots__ = ("_factory", "_label", "_items", "_pool")

    #: Recycled containers retained per map; past this they are freed.
    _POOL_LIMIT = 16

    def __init__(
        self, factory: Callable[[str, Tuple], Any], label: str = ""
    ):
        self._factory = factory
        self._label = label
        self._items: dict = {}
        self._pool: List[Any] = []

    def __call__(self, *key: Hashable) -> Any:
        item = self._items.get(key)
        if item is None:
            if self._pool:
                item = self._pool.pop()
                item.reset(self._label, key)
            else:
                item = self._factory(self._label, key)
            self._items[key] = item
        return item

    def peek(self, *key: Hashable) -> Optional[Any]:
        """The container for ``key`` if one exists — never creates.

        Message handlers use this for replies to operations that may
        already have retired their per-op state (see :meth:`discard`):
        a straggler ack must not resurrect a pruned entry, or long
        streaming runs would grow one dead container per operation.
        """
        return self._items.get(key)

    def discard(self, *key: Hashable) -> None:
        """Drop the container for ``key`` (no-op when absent).

        Clients call this when an operation completes so per-op
        responder state stays O(in-flight operations), not O(history) —
        the memory contract of horizon-free streaming runs.  The
        container is recycled (see the class docstring); callers must
        not retain references to it past the discard.
        """
        item = self._items.pop(key, None)
        if (
            item is not None
            and len(self._pool) < self._POOL_LIMIT
            and hasattr(item, "reset")
        ):
            self._pool.append(item)

