"""Tests for indexed conditions and the simulator's wait-set index."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.conditions import (
    AckSet,
    Check,
    ConditionMap,
    Event,
)
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.tasks import WaitUntil


class TestPrimitives:
    def test_event_set_wakes_waiter(self):
        sim = Simulator()
        event = Event("go")

        def coro():
            yield WaitUntil(event)
            return sim.now

        task = sim.spawn(coro())
        sim.call_at(3.0, event.set)
        sim.run_to_completion()
        assert task.result == 3.0

    def test_already_set_event_does_not_park(self):
        sim = Simulator()
        event = Event()
        event.set()

        def coro():
            yield WaitUntil(event)
            return "fast"

        task = sim.spawn(coro())
        assert task.done() and task.result == "fast"

    def test_count_threshold(self):
        sim = Simulator()
        acks = AckSet("acks")

        def coro():
            yield WaitUntil(acks.at_least(3))
            return (sim.now, len(acks))

        task = sim.spawn(coro())
        for time in (1.0, 2.0, 5.0, 6.0):
            sim.call_at(time, acks.add, time)
        sim.run_to_completion()
        assert task.result == (5.0, 3)

    def test_one_threshold_condition_per_needed(self):
        acks = AckSet()
        assert acks.at_least(2) is acks.at_least(2)
        assert acks.at_least(2) is not acks.at_least(3)

    def test_ackset_is_a_real_set(self):
        acks = AckSet("r1")
        acks.add("a")
        acks.add("b")
        acks.add("a")  # dedup
        assert len(acks) == 2
        assert frozenset({"a"}) <= acks
        assert not frozenset({"a", "c"}) <= acks

    def test_ackset_quorum_condition(self):
        sim = Simulator()
        acks = AckSet()
        quorums = (frozenset({1, 2}), frozenset({2, 3}))

        def coro():
            yield WaitUntil(acks.includes_quorum(
                lambda got: any(q <= got for q in quorums)
            ))
            return sorted(acks)

        task = sim.spawn(coro())
        sim.call_at(1.0, lambda: acks.add(1))
        sim.call_at(2.0, lambda: acks.add(3))
        sim.call_at(4.0, lambda: acks.add(2))
        sim.run_to_completion()
        assert task.done() and task.result == [1, 2, 3]

    def test_ackset_at_least(self):
        sim = Simulator()
        acks = AckSet()

        def coro():
            yield WaitUntil(acks.at_least(2))
            return sim.now

        task = sim.spawn(coro())
        sim.call_at(1.0, lambda: acks.add("x"))
        sim.call_at(1.0, lambda: acks.add("x"))  # duplicate: no growth
        sim.call_at(2.0, lambda: acks.add("y"))
        sim.run_to_completion()
        assert task.result == 2.0

    def test_check_requires_explicit_signal(self):
        sim = Simulator()
        box = {"ready": False}
        check = Check(lambda: box["ready"], "box")

        def coro():
            yield WaitUntil(check)
            return sim.now

        task = sim.spawn(coro())

        def flip_without_signal():
            box["ready"] = True

        sim.call_at(1.0, flip_without_signal)
        sim.call_at(2.0, check.signal)
        sim.run_to_completion()
        # The mutation at t=1 was invisible until the signal at t=2:
        # signals, not polling, drive indexed wake-ups.
        assert task.result == 2.0

    def test_timer_at_past_time_is_set(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run_to_completion()
        assert sim.timer_at(3.0).holds()

    def test_labels_are_derived_when_read(self):
        acks = ConditionMap(AckSet, "acks {}")(7)
        assert WaitUntil(acks.includes_quorum(bool)).label == "acks 7 quorum"
        assert ConditionMap(AckSet, "n={}")(1).at_least(2).label == "n=1>=2"
        # A check's label is a template and its key, as a set's is.
        check = Check(bool, "read#{} round {}", (1, 1))
        assert check.label == "read#1 round 1"
        assert WaitUntil(check).label == "read#1 round 1"
        assert Check(bool, "as {} given").label == "as {} given"
        timer = Simulator().timer_at(3.0)
        assert WaitUntil(timer).label == "t>=3.0"


class TestWaitSetIndex:
    def test_spurious_signal_leaves_task_parked(self):
        sim = Simulator()
        acks = AckSet()
        quorum = acks.includes_quorum(lambda got: len(got) >= 2)

        def coro():
            yield WaitUntil(quorum)
            return sim.now

        task = sim.spawn(coro())
        sim.call_at(1.0, acks.add, "a")  # signal fires, holds() is false
        sim.run_to_completion(strict=False)
        assert not task.done()
        assert len(sim.blocked_tasks()) == 1

    def test_same_instant_signal_then_park(self):
        """A condition satisfied earlier in the same instant must not
        deadlock a task that parks on it later in that instant — parking
        re-checks holds() before indexing the waiter."""
        sim = Simulator()
        acks = AckSet()
        results = []

        def waiter():
            yield WaitUntil(acks.at_least(1))
            results.append(sim.now)

        sim.call_at(2.0, acks.add, "a")                    # seq 0 at t=2
        sim.call_at(2.0, lambda: sim.spawn(waiter()))      # seq 1 at t=2
        sim.run_to_completion()
        assert results == [2.0]

    def test_one_condition_many_waiters_wake_in_park_order(self):
        sim = Simulator()
        event = Event()
        order = []

        def waiter(tag):
            yield WaitUntil(event)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.spawn(waiter(tag))
        assert len(sim.blocked_tasks()) == 3
        sim.call_at(1.0, event.set)
        sim.run_to_completion()
        assert order == ["a", "b", "c"]
        assert sim.blocked_tasks() == ()

    def test_same_instant_wakes_follow_park_order_not_signal_order(self):
        """Tasks on different conditions signalled in reverse park
        order within one instant wake in park order."""
        sim = Simulator()
        first = Event("first-parked")
        second = Event("second-parked")
        order = []

        def waiter(tag, event):
            yield WaitUntil(event)
            order.append(tag)

        sim.spawn(waiter("t1", first))
        sim.spawn(waiter("t2", second))
        # Signals arrive in reverse park order, same instant.
        sim.call_at(1.0, second.set)
        sim.call_at(1.0, first.set)
        sim.run_to_completion()
        assert order == ["t1", "t2"]

    def test_chained_condition_wakeups_same_instant(self):
        """A woken task setting another task's condition resumes it in
        the same instant (the fixpoint property, now signal-driven)."""
        sim = Simulator()
        first = Event("first")
        second = Event("second")

        def one():
            yield WaitUntil(first)
            second.set()

        def two():
            yield WaitUntil(second)
            return sim.now

        sim.spawn(one())
        task = sim.spawn(two())
        sim.call_at(2.0, first.set)
        sim.run_to_completion()
        assert task.result == 2.0

    def test_waiter_consuming_the_condition_reparks_the_rest(self):
        """A woken waiter that invalidates a shared condition must not
        drag later waiters awake — holds() is re-checked per waiter."""
        sim = Simulator()
        pool = []
        ready = Check(lambda: len(pool) >= 1, "non-empty pool")
        taken = []

        def consumer(tag):
            yield WaitUntil(ready)
            taken.append((tag, pool.pop()))

        for tag in ("a", "b"):
            sim.spawn(consumer(tag))
        sim.call_at(1.0, lambda: (pool.append("item"), ready.signal()))
        sim.run_to_completion(strict=False)
        assert taken == [("a", "item")]
        assert len(sim.blocked_tasks()) == 1

    def test_mixed_event_and_check_waiters(self):
        sim = Simulator()
        event = Event()
        box = {"ready": False}
        box_ready = Check(lambda: box["ready"], "box")

        def on_event():
            yield WaitUntil(event)
            box["ready"] = True
            box_ready.signal()

        def on_check():
            yield WaitUntil(box_ready)
            return sim.now

        sim.spawn(on_event())
        task = sim.spawn(on_check())
        sim.call_at(3.0, event.set)
        sim.run_to_completion()
        assert task.result == 3.0

    def test_strict_completion_reports_condition_waiters(self):
        sim = Simulator()

        def coro():
            yield WaitUntil(Event("never"))

        sim.spawn(coro())
        with pytest.raises(DeadlockError):
            sim.run_to_completion(strict=True)

    def test_max_events_guard_fires_mid_instant(self):
        """The livelock guard triggers inside an instant's event batch,
        even while tasks sit parked on conditions."""
        sim = Simulator()

        def coro():
            yield WaitUntil(Event("never fires"))

        sim.spawn(coro())

        def rearm():
            sim.call_later(0.0, rearm)

        sim.call_at(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)
        assert sim.events_processed == 51  # guard fired mid-instant

    def test_release_held_into_signalled_condition(self):
        """Messages released from in-transit wake an AckSet waiter."""
        from repro.sim.network import Hold

        sim = Simulator()
        net = Network(sim, delta=1.0, rules=[Hold(dst=("c",))])
        acks = AckSet()

        class Client(Process):
            def on_message(self, src, payload):
                acks.add(payload)

        client = Client("c").bind(net)
        Process("s").bind(net)

        def coro():
            yield WaitUntil(acks.at_least(2))
            return sim.now

        task = sim.spawn(coro())
        net.send("s", "c", 1)
        net.send("s", "c", 2)
        assert len(net.in_transit) == 2
        sim.call_at(10.0, lambda: net.release_held(delay=0.5))
        sim.run_to_completion(strict=False)
        assert task.done() and task.result == 10.5
        assert not net.in_transit
