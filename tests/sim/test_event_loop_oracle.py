"""Differential oracle for the flattened message path.

A delivery is one ``(time, seq, fn, arg)`` entry that ``Network.send``
pushes onto the simulator's queue itself, and ``Simulator.run`` keeps
its queue and event counter in locals.  The event loop it replaced —
``send -> _resolve -> _schedule_delivery -> call_at`` building a closure
per message, ``run`` popping ``(time, seq, action)`` and calling
``_wake_tasks`` after every instant — lives on *only here*, verbatim, as
:class:`ReferenceSimulator` / :class:`ReferenceNetwork` /
:class:`ReferenceProcess`.  Both worlds execute the same script (timers,
sends and broadcasts under delay/hold/drop rules with time windows,
``release_held`` into the current instant, crashes between send and
delivery, a handler that raises, ``max_events`` caps that trip
mid-instant) and must agree on the ordered ``(time, handler, src, dst,
payload)`` log, on every counter and on ``events_processed`` after every
``run`` call — also the ones that ended in an exception.  Seeded bugs in
the new loop must each be caught by the same comparison.
"""

import heapq
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.conditions import Counter
from repro.sim.network import DROP, HOLD, Message, Network, Rule, TraceLevel
from repro.sim.process import Process
from repro.sim.simulator import _NO_ARG, Simulator
from repro.sim.tasks import Sleep, WaitUntil

PIDS = ("a", "b", "c", "d")
Payload = namedtuple("Payload", "kind key")


class Boom(Exception):
    """What the script's raising handler raises."""


# -- the reference: the event loop before the flattening, verbatim ------------

class ReferenceSimulator(Simulator):
    def call_at(self, time, action, arg=_NO_ARG):
        if arg is not _NO_ARG:
            # The one-argument closure the parent's callers wrote by
            # hand (``lambda t=task: self._advance(t)``).
            action = lambda f=action, a=arg: f(a)  # noqa: E731
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        heapq.heappush(self._queue, (time, self._seq, action))
        self._seq += 1

    def run(self, until=None, max_events=1_000_000):
        while self._queue:
            time = self._queue[0][0]
            if until is not None and time > until:
                break
            self.now = time
            while self._queue and self._queue[0][0] == time:
                _, _, action = heapq.heappop(self._queue)
                action()
                self._events_processed += 1
                if self._events_processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; livelock suspected"
                    )
            self._wake_tasks()
        if until is not None and self.now < until:
            self.now = until
            self._wake_tasks()


class ReferenceNetwork(Network):
    def send(self, src, dst, payload):
        if dst not in self._processes:
            raise SimulationError(f"unknown destination {dst!r}")
        message = Message(src, dst, payload, send_time=self.sim.now)
        self.sent_count += 1
        if self.trace_level >= TraceLevel.FULL:
            self.log.append(message)
        else:
            key = getattr(payload, "key", None)
            if key is not None:
                self._sent_by_key[key] = self._sent_by_key.get(key, 0) + 1
        action = self._resolve(message)
        if action == HOLD:
            message.held = True
            self.held_count += 1
            self.in_transit.append(message)
            return message
        if action == DROP:
            message.dropped = True
            self.dropped_count += 1
            if self.trace_level >= TraceLevel.FULL:
                self.dropped.append(message)
            return message
        self._schedule_delivery(message, float(action))
        return message

    def _resolve(self, message):
        rules = self._rules
        if not rules:
            return self.delta
        key = (message.src, message.dst)
        candidates = self._rule_index.get(key)
        if candidates is None:
            candidates = tuple(
                rule
                for rule in rules
                if (rule.src is None or message.src in rule.src)
                and (rule.dst is None or message.dst in rule.dst)
            )
            self._rule_index[key] = candidates
        for rule in candidates:
            if rule.matches(
                message.src, message.dst, message.payload, message.send_time
            ):
                return rule.action
        return self.delta

    def _schedule_delivery(self, message, delay):
        message.deliver_time = self.sim.now + delay
        self.sim.call_at(
            message.deliver_time, lambda m=message: self._deliver(m)
        )

    def _deliver(self, message):
        receiver = self._processes.get(message.dst)
        self.delivered_count += 1
        if receiver is None:
            return
        receiver.receive(message)

    def release_held(self, predicate=None, delay=0.0):
        released = 0
        remaining = []
        for message in self.in_transit:
            if predicate is None or predicate(message):
                message.held = False
                self._schedule_delivery(message, delay)
                released += 1
            else:
                remaining.append(message)
        self.in_transit = remaining
        return released


class ReferenceProcess(Process):
    def send(self, dst, payload):
        if self.crashed:
            return
        if self.network is None:
            raise SimulationError(f"process {self.pid!r} is not bound")
        self.network.send(self.pid, dst, payload)

    def send_all(self, destinations, payload):
        for dst in destinations:
            self.send(dst, payload)

    def receive(self, message):
        if self.crashed:
            return
        if self.network.trace_level >= TraceLevel.FULL:
            self.delivered.append(message)
        self.on_message(message)


# -- one world: a simulator, a network, four echoing processes ---------------

def echoing(base):
    class Echo(base):
        """Logs every delivery, counts it on a condition and answers a
        ``req`` — so traffic is also sent from inside handlers."""

        def __init__(self, pid, log):
            super().__init__(pid)
            self.log = log
            self.got = Counter(f"got@{pid}")

        def on_message(self, message):
            self.log.append((
                self.sim.now, "deliver", message.src, message.dst,
                message.payload,
            ))
            self.got.add()
            if message.payload.kind == "req":
                self.send(message.src, Payload("ack", message.payload.key))
            elif message.payload.kind == "fan":
                self.send_all(PIDS, Payload("ack", message.payload.key))

    return Echo


class World:
    def __init__(self, sim_cls, net_cls, proc_base, script, trace_level):
        self.log = []
        self.sim = sim_cls()
        self.net = net_cls(
            self.sim, delta=script["delta"],
            rules=[Rule(*spec) for spec in script["rules"]],
            trace_level=trace_level,
        )
        echo = echoing(proc_base)
        self.procs = {pid: echo(pid, self.log).bind(self.net) for pid in PIDS}
        for pid in PIDS:
            self.sim.spawn(self.waiter(pid), name=f"waiter@{pid}")
        for step in script["steps"]:
            self.sim.call_at(step[1], getattr(self, "do_" + step[0])(*step[2:]))

    def waiter(self, pid):
        """Wakes on every second delivery to ``pid``; what it logs and
        sends shows *when* within an instant the wake pass ran."""
        process = self.procs[pid]
        seen = 0
        while True:
            seen += 2
            yield WaitUntil(process.got.at_least(seen))
            self.log.append((self.sim.now, "wake", pid, None, process.got.value))
            process.send(PIDS[0], Payload("woke", seen))

    def mark(self, handler, *rest):
        self.log.append((self.sim.now, handler) + rest)

    # Script steps: each returns the zero-argument action run at its time.

    def do_timer(self, label):
        return lambda: self.mark("timer", label, None, None)

    def do_send(self, src, dst, kind, key):
        return lambda: self.procs[src].send(dst, Payload(kind, key))

    def do_broadcast(self, src, kind, key):
        return lambda: self.procs[src].send_all(PIDS, Payload(kind, key))

    def do_release(self, delay):
        return lambda: self.mark(
            "release", None, None, self.net.release_held(delay=delay)
        )

    def do_crash(self, pid):
        return self.procs[pid].crash

    def do_add_rule(self, *spec):
        return lambda: self.net.add_rule(Rule(*spec))

    def do_sleeper(self, duration):
        def nap():
            yield Sleep(duration)
            self.mark("slept", duration, None, None)

        return lambda: self.sim.spawn(nap())

    def do_boom(self):
        def boom():
            self.mark("boom", None, None, None)
            raise Boom()

        return boom

    # -- running and observing ----------------------------------------------

    def snapshot(self):
        sim, net = self.sim, self.net
        return {
            "now": sim.now,
            "events_processed": sim.events_processed,
            "pending": sim.pending_events(),
            "blocked": [task.name for task in sim.blocked_tasks()],
            "counters": (net.sent_count, net.delivered_count,
                         net.dropped_count, net.held_count),
            "in_transit": [self.record(m) for m in net.in_transit],
            "net_log": [self.record(m) for m in net.log],
            "net_dropped": [self.record(m) for m in net.dropped],
            "sent_by_key": net.sent_by_key(),
            "delivered": {
                pid: [self.record(m) for m in proc.delivered]
                for pid, proc in self.procs.items()
            },
            "log": list(self.log),
        }

    @staticmethod
    def record(message):
        return (message.src, message.dst, message.payload, message.send_time,
                message.deliver_time, message.held, message.dropped)

    def run(self, phases):
        """One ``run`` call per phase, then drain; the world's state
        after every call, with how the call ended."""
        seen = []
        for until, max_events in list(phases) + [(None, 10_000)] * 8:
            try:
                self.sim.run(until=until, max_events=max_events)
                ended = "returned"
            except (Boom, SimulationError) as exc:
                ended = f"{type(exc).__name__}: {exc}"
            seen.append((ended, self.snapshot()))
        assert self.sim.pending_events() == 0
        return seen


REFERENCE = (ReferenceSimulator, ReferenceNetwork, ReferenceProcess)
CURRENT = (Simulator, Network, Process)


def differential(script, current=CURRENT):
    for trace_level in (TraceLevel.FULL, TraceLevel.METRICS):
        expected = World(*REFERENCE, script, trace_level).run(script["phases"])
        actual = World(*current, script, trace_level).run(script["phases"])
        for step, (want, got) in enumerate(zip(expected, actual)):
            assert got == want, f"run call {step} at {trace_level.name}"


# -- generated scripts -----------------------------------------------------

times = st.integers(0, 10).map(lambda half: half * 0.5)   # many equal times
pids = st.sampled_from(PIDS)
pid_sets = st.none() | st.frozensets(pids, min_size=1, max_size=3)
keys = st.integers(0, 2)
kinds = st.sampled_from(("req", "req", "note", "fan"))
rule_specs = st.tuples(
    st.sampled_from((0.0, 0.0, 0.5, 1, 2.5, HOLD, DROP)),
    pid_sets, pid_sets,
    st.sampled_from((float("-inf"), 1.0, 2.5)),
    st.sampled_from((float("inf"), 2.0, 4.0)),
)
steps = st.one_of(
    st.tuples(st.just("timer"), times, st.integers(0, 9)),
    st.tuples(st.just("send"), times, pids, pids, kinds, keys),
    st.tuples(st.just("broadcast"), times, pids, kinds, keys),
    st.tuples(st.just("release"), times, st.sampled_from((0, 0.0, 0.5, 3.0))),
    st.tuples(st.just("crash"), times, pids),
    st.tuples(st.just("add_rule"), times, rule_specs).map(
        lambda step: step[:2] + step[2]
    ),
    st.tuples(st.just("sleeper"), times, st.sampled_from((0.0, 0.5, 2.0))),
    st.tuples(st.just("boom"), times),
)
scripts = st.fixed_dictionaries({
    "delta": st.sampled_from((1.0, 1, 0.5)),
    "rules": st.lists(rule_specs, max_size=3),
    "steps": st.lists(steps, min_size=1, max_size=14),
    "phases": st.lists(
        st.tuples(st.none() | times, st.integers(1, 40)), max_size=3
    ),
})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts)
def test_flattened_message_path_matches_the_parent_event_loop(script):
    differential(script)


# -- scripted flows (each also the script that kills a mutant) -----------------

INF = float("inf")
SCRIPTS = {
    # Two timers, two unicasts and a broadcast all land at t=1.0 and at
    # t=2.0; the acks they trigger tie again.
    "ties": {
        "delta": 1.0, "rules": [], "phases": [],
        "steps": [
            ("timer", 1.0, 1), ("send", 0.0, "a", "b", "req", 0),
            ("send", 0.0, "c", "b", "req", 1), ("timer", 1.0, 2),
            ("broadcast", 0.0, "d", "note", 2), ("timer", 2.0, 3),
        ],
    },
    # Two same-instant deliveries complete b's wait: the waiter must log
    # after both, and its own send must queue behind their acks.
    "same-instant-wake": {
        "delta": 1.0, "rules": [], "phases": [],
        "steps": [
            ("send", 0.0, "a", "b", "req", 0), ("send", 0.0, "c", "b", "req", 1),
            ("send", 0.0, "d", "b", "note", 2), ("timer", 1.0, 7),
        ],
    },
    # A drop window, a hold released with delay 0 into the instant that
    # releases it, and a zero-delay link whose deliveries join the
    # current instant.
    "rules": {
        "delta": 1.0, "phases": [],
        "rules": [
            (DROP, frozenset("a"), None, 1.0, 2.0),
            (HOLD, None, frozenset("c"), float("-inf"), 1.5),
            (0.0, frozenset("d"), frozenset("a"), float("-inf"), INF),
        ],
        "steps": [
            ("send", 0.0, "b", "c", "req", 0), ("broadcast", 1.0, "a", "req", 1),
            ("send", 1.5, "a", "b", "note", 2), ("send", 1.0, "d", "a", "req", 0),
            ("release", 3.0, 0), ("timer", 3.0, 4), ("broadcast", 2.0, "a", "fan", 2),
        ],
    },
    # A crash between send and delivery, a handler that raises with two
    # more events left in its instant, and a cap that trips mid-instant.
    "interrupted": {
        "delta": 1.0, "rules": [], "phases": [(None, 4), (2.0, 9)],
        "steps": [
            ("broadcast", 0.0, "a", "req", 0), ("crash", 0.5, "b"),
            ("timer", 1.0, 1), ("timer", 1.0, 2),
            ("send", 1.0, "c", "d", "req", 1), ("boom", 1.0),
            ("sleeper", 1.0, 0.0), ("broadcast", 2.0, "c", "note", 2),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scripted_flows_agree(name):
    differential(SCRIPTS[name])


def test_scripted_flows_exercise_what_they_claim():
    world = World(*CURRENT, SCRIPTS["rules"], TraceLevel.FULL)
    world.run([])
    assert world.net.dropped_count and world.net.held_count
    assert any(m.deliver_time == m.send_time for m in world.net.log)
    released = [entry for entry in world.log if entry[1] == "release"]
    assert released and released[0][-1] > 0
    world = World(*CURRENT, SCRIPTS["interrupted"], TraceLevel.FULL)
    ends = [ended for ended, _ in world.run(SCRIPTS["interrupted"]["phases"])]
    assert ends[0].startswith("SimulationError: exceeded 4 events")
    assert ends[1].startswith("Boom") and ends[-1] == "returned"
    assert world.procs["b"].delivered == []           # crashed before t=1


# -- seeded mutants of the new loop -----------------------------------------

def mutated_run(pop=heapq.heappop, wake_every_event=False):
    """``Simulator.run`` as shipped, with a replaceable pop and an
    optional wake pass after every event."""

    def run(self, until=None, max_events=1_000_000):
        queue = self._queue
        processed = self._events_processed
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                self.now = time
                while queue and queue[0][0] == time:
                    _, _, action, arg = pop(queue)
                    if arg is _NO_ARG:
                        action()
                    else:
                        action(arg)
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; "
                            "livelock suspected"
                        )
                    if wake_every_event:
                        self._wake_tasks()
                if self._signalled:
                    self._wake_tasks()
        finally:
            self._events_processed = processed
        if until is not None and self.now < until:
            self.now = until
            self._wake_tasks()

    return run


def pop_newest(queue):
    """The newest entry of the earliest instant (a LIFO tie-break)."""
    time = queue[0][0]
    entry = max(e for e in queue if e[0] == time)
    queue.remove(entry)
    heapq.heapify(queue)
    return entry


class FaithfulCopy(Simulator):
    """No mutation: the harness the mutants are built from is the loop."""
    run = mutated_run()


class LifoTieBreak(Simulator):
    run = mutated_run(pop=pop_newest)


class WakesBetweenEvents(Simulator):
    run = mutated_run(wake_every_event=True)


class SkippedSeq(Network):
    """Every second delivery reuses the sequence number before it."""

    def send(self, src, dst, payload):
        message = super().send(src, dst, payload)
        if message.deliver_time is not None and self.sent_count % 2:
            self.sim._seq -= 1
        return message


class DroppedCountsAsDelivered(Network):
    def send(self, src, dst, payload):
        message = super().send(src, dst, payload)
        if message.dropped:
            self.delivered_count += 1
        return message


MUTANTS = {
    LifoTieBreak: ((LifoTieBreak, Network, Process), "ties"),
    WakesBetweenEvents: ((WakesBetweenEvents, Network, Process),
                         "same-instant-wake"),
    SkippedSeq: ((Simulator, SkippedSeq, Process), "ties"),
    DroppedCountsAsDelivered: ((Simulator, DroppedCountsAsDelivered, Process),
                               "rules"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_the_mutant_harness_is_the_shipped_loop(name):
    differential(SCRIPTS[name], (FaithfulCopy, Network, Process))


@pytest.mark.parametrize("mutant", sorted(MUTANTS, key=lambda m: m.__name__))
def test_seeded_mutants_are_killed(mutant):
    world, script = MUTANTS[mutant]
    # A reused sequence number either reorders a tie or makes the heap
    # compare two handlers (TypeError): both are a kill.
    with pytest.raises((AssertionError, TypeError)):
        differential(SCRIPTS[script], world)
