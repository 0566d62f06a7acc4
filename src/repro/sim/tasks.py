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
``Event``.
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

    __slots__ = ("condition", "_label")

    def __init__(self, condition: Condition, label: str = ""):
        if not isinstance(condition, Condition):
            raise TypeError(
                f"WaitUntil takes a Condition, got {condition!r}; wrap a "
                f"predicate in repro.sim.conditions.Check and signal() it "
                f"when its inputs change"
            )
        self.condition = condition
        self._label = label

    @property
    def label(self) -> str:
        """The wait's own label, else its condition's (read lazily)."""
        return self._label or self.condition.label

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


#: Ceiling of the adaptive (``batch_size="auto"``) coalescing window.
AUTO_BATCH_MAX = 32


def batched_ops(sim, schedule, size, run_batch):
    """Driver coroutine: one client's operations, coalesced ``size`` at
    a time into batched round-trips.

    ``schedule`` yields ``(time, elem)`` pairs in the client's draw
    order; each batch is the next up-to-``size`` pending elements and
    starts no earlier than its *first* element's scheduled time (the
    batching rule — later elements ride along, their own times are
    subsumed) and no earlier than the previous batch's completion.
    ``run_batch(elements)`` is the protocol's batched coroutine.

    ``size="auto"`` sizes each window from the client's observed
    pending queue instead of a fixed count: after waiting for the head
    element's start time, the batch takes every element whose scheduled
    time has already passed (capped at :data:`AUTO_BATCH_MAX`).  The
    window therefore grows while round-trips run slow — lossy pre-GST
    traffic backs operations up, and the backlog coalesces — and
    shrinks back toward 1 when the client keeps up with its arrival
    rate.  The rule reads only the simulated clock and the draw, so
    replays of the same spec are bit-identical.
    """
    iterator = iter(schedule)
    if size == "auto":
        yield from _adaptive_batches(sim, iterator, run_batch)
        return
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        start = chunk[0][0]
        if not start <= sim.now:  # later — or NaN, which timer_at refuses
            yield WaitUntil(sim.timer_at(start))
        yield from run_batch([elem for _, elem in chunk])


def _adaptive_batches(sim, iterator, run_batch):
    """The ``"auto"`` window rule of :func:`batched_ops`.

    Keeps a one-element pushback buffer (``pending``): the first
    element whose scheduled time is still in the future ends the
    current window and becomes the next window's head.
    """
    pending = next(iterator, None)
    while pending is not None:
        start = pending[0]
        if not start <= sim.now:  # later — or NaN, which timer_at refuses
            yield WaitUntil(sim.timer_at(start))
        horizon = sim.now
        chunk = [pending]
        pending = None
        for item in iterator:
            if item[0] <= horizon and len(chunk) < AUTO_BATCH_MAX:
                chunk.append(item)
            else:
                pending = item
                break
        yield from run_batch([elem for _, elem in chunk])
        if pending is None:
            pending = next(iterator, None)


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
