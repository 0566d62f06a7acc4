"""Generator-coroutine tasks and their blocking effects.

Protocol code in this library is written as Python generators that
``yield`` *effects* to the simulator, so that algorithm implementations
read like the paper's pseudocode::

    def write(self, value):
        self.ts += 1
        yield from self.round(1)
        if self.acked_class1_quorum():
            return "OK"
        ...

The one effect is :class:`WaitUntil`: park until an indexed
:class:`~repro.sim.conditions.Condition` (an ``Event``, an ``AckSet``
threshold or quorum, a ``Timer``, an explicit ``Check``, …) holds; the
simulator re-polls the task only when the condition is *signalled*.  A
deadline is a condition too.  A storage round waits out its ``2Δ`` on a
:meth:`~repro.sim.simulator.Simulator.timer_at` timer and then waits for
its quorum, one condition at a time: both waits end in the wake pass of
the later one's instant, since a task that re-parks while it is woken
keeps its place in the park order.  A client's next start time is a bare
timer, and the election module's ``suspectTimeout`` is a
:meth:`~repro.sim.simulator.Simulator.call_later` callback.

A task finishes when its generator returns; the returned value is stored
in :attr:`Task.result`.  Tasks wait on each other through a shared
``Event``: a batched RQS read spawns each write-back group as a task of
its own and waits on the groups' completion events before it returns.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Generator, Optional

from repro.sim.conditions import Condition


class Effect:
    """Base class for objects protocol coroutines may ``yield``."""


class WaitUntil(Effect):
    """Park the task until ``condition`` holds.

    ``condition`` is an indexed :class:`~repro.sim.conditions.Condition`;
    wake-ups are driven by :meth:`~repro.sim.conditions.Condition.signal`,
    never by polling.  A bare callable is refused: wrap state the
    simulator cannot see in a :class:`~repro.sim.conditions.Check` and
    signal it where that state changes.
    """

    __slots__ = ("condition",)

    def __init__(self, condition: Condition):
        if not isinstance(condition, Condition):
            raise TypeError(
                f"WaitUntil takes a Condition, got {condition!r}; wrap a "
                f"predicate in repro.sim.conditions.Check and signal() it "
                f"when its inputs change"
            )
        self.condition = condition

    @property
    def label(self) -> str:
        """The condition's label (read lazily)."""
        return self.condition.label

    def ready(self) -> bool:
        """The wait's current truth value."""
        return self.condition.holds()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitUntil({self.label or self.condition!r})"


def sequential_ops(sim, schedule):
    """Driver coroutine: run one client's operations back to back.

    ``schedule`` yields ``(time, factory, args)`` triples; each
    operation coroutine ``factory(*args)`` starts no earlier than its
    scheduled time and no earlier than the previous operation's
    completion — the paper's client well-formedness rule.  The storage
    adapters of :mod:`repro.scenarios` spawn one per unbatched client.
    """
    for time, factory, args in schedule:
        start = time
        if not start <= sim.now:  # later — or NaN, which timer_at refuses
            yield WaitUntil(sim.timer_at(start))
        yield from factory(*args)


def batched_ops(sim, schedule, size, run_batch):
    """Driver coroutine: one client's operations, coalesced ``size`` at
    a time into batched round-trips.

    ``schedule`` yields ``(time, elem)`` pairs in the client's draw
    order; each batch is the next up-to-``size`` pending elements and
    starts no earlier than its *first* element's scheduled time (the
    batching rule — later elements ride along, their own times are
    subsumed) and no earlier than the previous batch's completion.
    ``run_batch(elements)`` is the protocol's batched coroutine.
    """
    iterator = iter(schedule)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        start = chunk[0][0]
        if not start <= sim.now:  # later — or NaN, which timer_at refuses
            yield WaitUntil(sim.timer_at(start))
        yield from run_batch([elem for _, elem in chunk])


class Task:
    """A running protocol coroutine.

    Created via :meth:`repro.sim.simulator.Simulator.spawn`; not
    instantiated directly by user code.
    """

    def __init__(self, coro: Generator[Effect, Any, Any], name: str = ""):
        self._coro = coro
        self.name = name or repr(coro)
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.waiting_on: Optional[Effect] = None

    def done(self) -> bool:
        """True when the coroutine has returned."""
        return self.finished

    def step(self, value: Any = None) -> Optional[Effect]:
        """Advance the coroutine; return the next effect or ``None`` if done.

        Exceptions escaping the coroutine are stored in :attr:`error` and
        re-raised — simulations should be loud about protocol bugs.
        """
        if self.finished:
            return None
        try:
            effect = self._coro.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.waiting_on = None
            return None
        except BaseException as exc:
            self.finished = True
            self.error = exc
            self.waiting_on = None
            raise
        self.waiting_on = effect
        return effect

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else f"waiting on {self.waiting_on!r}"
        return f"Task({self.name}, {state})"
