"""The deterministic discrete-event simulator.

The simulator owns a priority queue of timed callbacks and the *wait-set
index*: a ``condition -> waiters`` map of tasks blocked on indexed
:class:`~repro.sim.conditions.Condition` objects.  Message handlers and
timers mutate conditions, conditions *signal* the simulator, and after
every simulated instant only the tasks whose condition was signalled are
re-polled — wake-up work proportional to what actually changed.

A message delivery that completes an "acks from some quorum" condition
therefore wakes the corresponding client in the same instant — matching
the paper's assumption that local computation takes negligible time.

A queue entry is ``(time, seq, fn, arg)``.  Most stand for one event,
``fn(arg)`` (``fn()`` without an argument); an entry whose ``arg`` is a
:class:`Block` stands for one event *per member* — a broadcast's
deliveries due at one instant, pushed by ``Network.send_all`` — and
``run`` counts, caps and resumes it message by message, so
``events_processed``, ``max_events`` and :meth:`Simulator.pending_events`
cannot tell it from that many entries.

Determinism: events at equal times execute in insertion order (a
monotonic sequence number breaks ties), and tasks whose conditions were
signalled in one instant wake in park order, each re-checking
``holds()`` at its turn.  Given the same schedule and seeds, runs are
bit-for-bit reproducible.  Every parked task carries a park number, and
a wake pass sorts only the waiters of the signalled conditions by it: a
parked task whose condition was not signalled costs nothing.  The pass
makes at most one ``holds()`` per event on a workload with 50 parked
readers and visits exactly the signalled waiters
(``tests/sim/test_wakeup_cost.py`` pins both).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.conditions import Condition, Timer
from repro.sim.tasks import Effect, Task, WaitUntil

#: "No argument": the ``arg`` slot of a queue entry whose action takes
#: none (``None`` is a legitimate argument, e.g. ``release_held(None)``).
_NO_ARG = object()


class Block(list):
    """Several events of one instant in one queue entry: the entry's
    ``arg``, a stack of members (the next one to run is the last).

    The entry's action is called as ``action(block, room)`` and runs at
    most ``room`` members, popping each off *before* it runs it — so
    whichever way the call ends, what is left in the block is what has
    not run.  Every member popped is one event.
    """

    __slots__ = ()


def _livelock(max_events: int) -> SimulationError:
    return SimulationError(
        f"exceeded {max_events} events; livelock suspected"
    )


class Simulator:
    """Event loop for simulated distributed executions."""

    def __init__(self):
        self.now: float = 0.0
        # Entries are ``(time, seq, fn, arg)``; ``seq`` (insertion order)
        # breaks ties, so ``fn``/``arg`` are never compared.  ``Network``
        # pushes its deliveries here directly, in the same shape (a
        # broadcast's as ``Block``s).
        self._queue: List[Tuple[float, int, Callable[..., None], Any]] = []
        self._seq = 0
        # The wait-set index: condition -> tasks parked on it, plus each
        # parked task's park number, which fixes the wake order across
        # conditions (sorting by it gives the park order).
        self._waiters: Dict[Condition, List[Task]] = {}
        self._parked: Dict[Task, int] = {}
        self._parks = 0           # the next fresh park number
        # While a woken task advances, what parks takes its place in the
        # park order: the first park takes its number (``_slot``), a
        # later one the place right behind the one before (``_slot_tail``).
        self._slot: Optional[int] = None
        self._slot_tail: Optional[Task] = None
        # Conditions signalled since the last wake pass (their order is
        # irrelevant: the pass orders their waiters by park number).
        self._signalled: Set[Condition] = set()
        self._events_processed = 0

    # -- scheduling ----------------------------------------------------------

    def call_at(
        self, time: float, action: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Run ``action()`` — or ``action(arg)`` — at absolute simulated
        ``time``."""
        if not time >= self.now:  # in the past, or NaN (never due)
            raise SimulationError(
                f"cannot schedule at {time}: not a time >= now={self.now}"
            )
        heapq.heappush(self._queue, (time, self._seq, action, arg))
        self._seq += 1

    def call_later(
        self, delay: float, action: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Run ``action()`` — or ``action(arg)`` — after ``delay``
        simulated time units."""
        self.call_at(self.now + delay, action, arg)

    def timer_at(self, time: float) -> Timer:
        """A :class:`Timer` event that sets itself at absolute ``time``.

        The condition-flavoured deadline: protocols wait on the returned
        event (a write round waits on it, then on its quorum condition)
        instead of scheduling a no-op callback and polling ``sim.now``.
        Already-elapsed times return an already-set event.
        """
        event = Timer(time)
        if time <= self.now:
            event.set()
        else:
            self.call_at(time, event.set)
        return event

    # -- tasks -----------------------------------------------------------------

    def spawn(
        self, coro: Generator[Effect, Any, Any], name: str = ""
    ) -> Task:
        """Start a protocol coroutine; it runs until its first block.
        The simulator keeps the task only while it is parked."""
        task = Task(coro, name=name)
        self._advance(task)
        return task

    def _advance(self, task: Task) -> None:
        """Step ``task`` until it blocks (a ``WaitUntil`` whose condition
        does not hold) or finishes."""
        effect = task.step(None)
        while effect is not None:
            if isinstance(effect, WaitUntil):
                if effect.ready():
                    effect = task.step(None)
                    continue
                self._park_on(effect.condition, task)
                return
            raise SimulationError(f"unknown effect yielded: {effect!r}")

    def _park_on(self, condition: Condition, task: Task) -> None:
        waiters = self._waiters.get(condition)
        if waiters is None:
            self._waiters[condition] = [task]
            condition._sim = self
        else:
            waiters.append(task)
        slot = self._slot
        if slot is None:
            self._parked[task] = self._parks
            self._parks += 1
        elif self._slot_tail is None:
            self._parked[task] = slot
            self._slot_tail = task
        else:
            self._park_behind(self._slot_tail, task)
            self._slot_tail = task

    def _park_behind(self, tail: Task, task: Task) -> None:
        """Renumber the parked tasks so that ``task`` comes right behind
        ``tail`` — a woken task parked more than one task (it spawned
        one that parked), and they share its place in the park order."""
        parked = self._parked
        order = sorted(parked, key=parked.__getitem__)
        order.insert(order.index(tail) + 1, task)
        for number, each in enumerate(order):
            parked[each] = number
        self._parks = len(order)

    # -- signals ------------------------------------------------------------

    def _signal(self, condition: Condition) -> None:
        """Batch a condition for the end-of-instant wake pass.

        Called by :meth:`Condition.signal`; deduplicated per pass and
        ignored for conditions nobody waits on.
        """
        if condition in self._waiters:
            self._signalled.add(condition)

    def _wake_tasks(self) -> None:
        """Wake every task whose wait now holds (to fixpoint).

        A pass takes the waiters of the conditions signalled since the
        last one and visits them in **park order** (sorted by park
        number), re-checking ``holds()`` per task at its turn: a woken
        task that consumes a shared condition leaves later waiters
        parked, and what a woken task parks — itself again, tasks it
        spawned — takes its place in the park order.  Any other parked
        task costs nothing: conditions only change via signalling
        mutations, so an unsignalled condition cannot have become true.
        Waking a task may signal more conditions, so passes repeat until
        no signal is left.  If a woken task raises, the conditions of
        the waiters the pass did not reach stay signalled for the next.
        """
        parked = self._parked
        waiters_of = self._waiters
        while self._signalled:
            batch = self._signalled
            self._signalled = set()
            touched: List[Task] = []
            for condition in batch:
                waiters = waiters_of.get(condition)
                if waiters is not None:
                    touched += waiters
            # A stack: the first to visit is last.
            touched.sort(key=parked.__getitem__, reverse=True)
            try:
                while touched:
                    task = touched.pop()
                    condition = task.waiting_on.condition
                    if not condition.holds():
                        continue
                    waiters = waiters_of[condition]
                    waiters.remove(task)
                    if not waiters:
                        del waiters_of[condition]
                        condition._sim = None
                    task.waiting_on = None
                    self._slot = parked.pop(task)
                    self._slot_tail = None
                    self._advance(task)
                    self._slot = None
            except BaseException:
                self._slot = None
                for task in touched:
                    self._signal(task.waiting_on.condition)
                raise

    # -- running ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When the queue runs dry before ``until``, the clock still advances
        to exactly ``until`` so follow-up scheduling stays consistent.
        """
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        no_arg = _NO_ARG
        # The counter lives in a local while the loop runs and is
        # written back on every way out (a handler that raises, the cap).
        processed = self._events_processed
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                self.now = time
                # Process *every* event scheduled at this instant before
                # waking tasks: this models the paper's atomic receive
                # substep (a process receives the full set of available
                # messages in one step), and avoids spurious wake-ups
                # between deliveries that happen "at the same time".
                while queue and queue[0][0] == time:
                    _, seq, action, arg = pop(queue)
                    if type(arg) is Block:
                        # One event per member popped.  ``room`` lets
                        # the cap trip on the message it would trip on
                        # with one entry each; a member that raises is
                        # consumed and uncounted, like any event that
                        # raises; what is left goes back under the
                        # block's own ``seq`` (nothing else of this
                        # instant can lie between two members).
                        size = len(arg)
                        try:
                            action(arg, max(max_events - processed + 1, 1))
                        except BaseException:
                            processed -= 1
                            raise
                        finally:
                            processed += size - len(arg)
                            if arg:
                                push(queue, (time, seq, action, arg))
                        if processed > max_events:
                            raise _livelock(max_events)
                        continue
                    if arg is no_arg:
                        action()
                    else:
                        action(arg)
                    processed += 1
                    if processed > max_events:
                        raise _livelock(max_events)
                # Nothing signalled: the wake pass would find nothing
                # to re-poll.
                if self._signalled:
                    self._wake_tasks()
        finally:
            self._events_processed = processed
        if until is not None and self.now < until:
            self.now = until
            self._wake_tasks()

    def run_to_completion(
        self, strict: bool = True, max_events: int = 1_000_000
    ) -> None:
        """Drain the queue; with ``strict`` raise if tasks remain blocked.

        In an asynchronous execution it is legitimate for operations to
        block forever (no correct quorum); pass ``strict=False`` there and
        inspect :meth:`blocked_tasks`.
        """
        self.run(until=None, max_events=max_events)
        if strict and self.blocked_tasks():
            names = [t.name for t in self.blocked_tasks()]
            raise DeadlockError(
                f"event queue drained with blocked tasks: {names}"
            )

    # -- introspection ----------------------------------------------------------

    def blocked_tasks(self) -> Tuple[Task, ...]:
        """Every parked task, in park order."""
        parked = self._parked
        return tuple(sorted(parked, key=parked.__getitem__))

    def pending_events(self) -> int:
        """Events still queued — a :class:`Block` counts once per member."""
        return sum(
            len(arg) if type(arg) is Block else 1
            for _, _, _, arg in self._queue
        )

    @property
    def events_processed(self) -> int:
        """Events run so far; brought up to date whenever :meth:`run`
        returns or raises (the loop counts in a local meanwhile)."""
        return self._events_processed
