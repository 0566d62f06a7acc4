"""Tests for the discrete-event simulator kernel."""

import signal
import weakref

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.scenarios import (
    Crash, FaultPlan, Propose, RandomMix, Read, ScenarioSpec, Write, run,
)
from repro.sim.conditions import Check, Event
from repro.sim.simulator import Simulator
from repro.sim.tasks import WaitUntil


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_at(2.0, lambda: order.append("b"))
        sim.call_at(1.0, lambda: order.append("a"))
        sim.call_at(3.0, lambda: order.append("c"))
        sim.run_to_completion()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in ("x", "y", "z"):
            sim.call_at(1.0, lambda t=tag: order.append(t))
        sim.run_to_completion()
        assert order == ["x", "y", "z"]

    def test_call_at_passes_one_argument(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, seen.append, "a")
        sim.call_later(1.0, seen.append, None)    # None is an argument
        sim.call_at(1.0, lambda: seen.append("no-arg"))
        sim.run_to_completion()
        assert seen == ["a", None, "no-arg"]

    def test_events_processed_survives_a_raising_handler(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.call_at(1.0, [].pop)                  # raises IndexError
        sim.call_at(1.0, lambda: None)
        with pytest.raises(IndexError):
            sim.run_to_completion()
        assert (sim.events_processed, sim.pending_events()) == (1, 1)
        sim.run_to_completion()
        assert sim.events_processed == 2

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run_to_completion()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_defers_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert not fired
        sim.run(until=15.0)
        assert fired


class TestTasks:
    def test_waiting_on_a_timer_advances_time(self):
        sim = Simulator()
        times = []

        def coro():
            times.append(sim.now)
            yield WaitUntil(sim.timer_at(sim.now + 3.0))
            times.append(sim.now)
            return "done"

        task = sim.spawn(coro())
        sim.run_to_completion()
        assert task.finished and task.result == "done"
        assert times == [0.0, 3.0]

    def test_wait_until_parks_and_wakes(self):
        sim = Simulator()
        ready = Event("box")

        def coro():
            yield WaitUntil(ready)
            return sim.now

        task = sim.spawn(coro())
        sim.call_at(4.0, ready.set)
        sim.run_to_completion()
        assert task.result == 4.0

    def test_immediately_true_condition_does_not_park(self):
        sim = Simulator()

        def coro():
            yield WaitUntil(Check(lambda: True))
            return "fast"

        task = sim.spawn(coro())
        assert task.finished and task.result == "fast"

    def test_raw_predicate_is_refused(self):
        """Nothing would ever re-poll it: the message names the fix."""
        with pytest.raises(TypeError, match="Check"):
            WaitUntil(lambda: True)

    def test_chained_wakeups_same_instant(self):
        """A task waking can satisfy another parked task immediately."""
        sim = Simulator()
        state = {"a": False, "b": False}
        a_set = Check(lambda: state["a"], "a")
        b_set = Check(lambda: state["b"], "b")

        def first():
            yield WaitUntil(a_set)
            state["b"] = True
            b_set.signal()

        def second():
            yield WaitUntil(b_set)
            return sim.now

        sim.spawn(first())
        task = sim.spawn(second())
        sim.call_at(2.0, lambda: (state.update(a=True), a_set.signal()))
        sim.run_to_completion()
        assert task.result == 2.0

    def test_same_time_events_batch_before_wakeup(self):
        """All deliveries at one instant are visible to woken tasks
        (the paper's atomic receive substep)."""
        sim = Simulator()
        inbox = []
        non_empty = Check(lambda: len(inbox) >= 1, "inbox")

        def coro():
            yield WaitUntil(non_empty)
            return len(inbox)

        task = sim.spawn(coro())
        for item in range(5):
            sim.call_at(
                1.0, lambda i=item: (inbox.append(i), non_empty.signal())
            )
        sim.run_to_completion()
        assert task.result == 5

    def test_task_exception_propagates(self):
        sim = Simulator()

        def coro():
            yield WaitUntil(sim.timer_at(1.0))
            raise RuntimeError("boom")

        task = sim.spawn(coro())
        with pytest.raises(RuntimeError):
            sim.run_to_completion()
        assert isinstance(task.error, RuntimeError)

    def test_strict_completion_detects_blocked_tasks(self):
        sim = Simulator()

        def coro():
            yield WaitUntil(Check(lambda: False, "never"))

        sim.spawn(coro())
        with pytest.raises(DeadlockError):
            sim.run_to_completion(strict=True)

    def test_nonstrict_completion_reports_blocked(self):
        sim = Simulator()

        def coro():
            yield WaitUntil(Check(lambda: False, "never"))

        sim.spawn(coro())
        sim.run_to_completion(strict=False)
        assert len(sim.blocked_tasks()) == 1

    def test_a_finished_task_is_freed(self):
        """The simulator keeps a task only while it is parked."""
        sim = Simulator()

        def coro():
            yield WaitUntil(sim.timer_at(1.0))

        generator = coro()
        freed = weakref.ref(generator)
        sim.spawn(generator, "once")
        del generator
        sim.run_to_completion()
        assert freed() is None

    def test_a_task_raising_in_the_wake_pass_loses_no_parked_task(self):
        """``boom`` and ``w1`` wait on one event, ``w2`` on another;
        ``boom`` raises when it wakes.  The tasks the interrupted pass
        had not reached stay parked, in park order, and the signal it
        had not delivered to ``w1`` is kept for the next pass."""
        sim = Simulator()
        first, second = Event("first"), Event("second")
        woke = []

        def boom():
            yield WaitUntil(first)
            raise RuntimeError("boom")

        def waiter(name, event):
            yield WaitUntil(event)
            woke.append((sim.now, name))

        sim.spawn(boom(), "boom")
        sim.spawn(waiter("w1", first), "w1")
        sim.spawn(waiter("w2", second), "w2")
        sim.call_at(1.0, first.set)
        sim.call_at(2.0, second.set)
        with pytest.raises(RuntimeError):
            sim.run()
        assert [task.name for task in sim.blocked_tasks()] == ["w1", "w2"]
        assert woke == []
        sim.run()
        assert woke == [(2.0, "w1"), (2.0, "w2")]
        assert sim.blocked_tasks() == ()

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.call_later(0.0, rearm)

        sim.call_at(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_unknown_effect_rejected(self):
        sim = Simulator()

        def coro():
            yield "not an effect"

        with pytest.raises(SimulationError):
            sim.spawn(coro())


NAN = float("nan")


class TestNaNTimes:
    """A NaN time is never due: queued, it made ``run`` spin without
    processing an event (``max_events`` never tripped).  Every way in
    refuses it when it is scheduled."""

    @pytest.fixture(autouse=True)
    def fail_instead_of_hanging(self):
        def hung(signum, frame):
            raise AssertionError("the event loop is spinning on a NaN time")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_call_at_and_call_later(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.call_at(NAN, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.call_later(NAN, lambda: None)
        sim.run(max_events=10)
        assert sim.pending_events() == 0

    def test_timer_at(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.timer_at(NAN)
        sim.run(max_events=10)

    @pytest.mark.parametrize("spec", [
        ScenarioSpec("abd", workload=(Write(0.0, "v"), Read(5.0)),
                     faults=FaultPlan(crashes=(Crash(1, NAN),))),
        ScenarioSpec("abd", workload=(Write(NAN, "v"), Read(5.0))),
        ScenarioSpec("abd", workload=(Write(0.0, "v"), Read(NAN))),
        ScenarioSpec("abd", workload=(Write(0.0, "v"), Write(NAN, "w"))),
        ScenarioSpec("rqs-consensus", rqs="example6", horizon=60.0,
                     workload=(Propose(NAN, "V"),)),
        ScenarioSpec("abd", workload=(
            RandomMix(3, 3, horizon=10.0, start=NAN, batch_size=4),)),
    ], ids=["crash", "write", "read", "second-write", "propose",
            "batched-mix"])
    def test_a_spec_with_a_nan_time_is_refused(self, spec):
        with pytest.raises(SimulationError, match="nan"):
            run(spec)


def test_determinism_identical_runs():
    """Two identical schedules produce identical event interleavings."""

    def run_once():
        sim = Simulator()
        log = []

        def worker(name, delay):
            yield WaitUntil(sim.timer_at(sim.now + delay))
            log.append((name, sim.now))
            yield WaitUntil(sim.timer_at(sim.now + delay))
            log.append((name, sim.now))

        sim.spawn(worker("a", 1.5))
        sim.spawn(worker("b", 1.5))
        sim.spawn(worker("c", 2.0))
        sim.run_to_completion()
        return log

    assert run_once() == run_once()
