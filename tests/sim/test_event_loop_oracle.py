"""Differential oracle for the message path and the wake pass.

A broadcast is one queue entry per delivery instant: ``Network.send_all``
pushes ``(deliver_time, seq, _deliver_block, Block([...]))`` and
``Simulator.run`` walks the block inside the instant, one event per
member.  A queued delivery is a bare ``(src, dst, payload)`` at every
level: only a held or dropped message gets a ``Message``.  ``_deliver``
/ ``_deliver_block`` hand each delivery straight to the receiver's
``on_message(src, payload)`` — dropping it for a crashed receiver — and
``send`` / ``send_all`` skip ``_resolve`` on a channel no rule can
match.  At FULL a send is logged as one entry per ``send`` /
``send_all`` call, which ``Network.log`` turns into ``Message`` records
when it is read (the live record of a held or dropped member).  A wake
pass visits only the waiters of the signalled conditions, sorted by park
number.

The paths these replaced live on *only here*, verbatim, as
:class:`ReferenceSimulator` / :class:`ReferenceNetwork`: ``send_all`` a
loop over ``send``, one ``(time, seq, fn, message)`` entry per
destination, ``_resolve`` on every send of a network with rules, ``run``
popping one entry per event, ``pending_events()`` the length of the
heap, a ``Message`` built for every send and appended to a log list at
FULL, ``release_held`` queueing the held record, ``_deliver`` handing the
message to ``Process.receive`` (the crash drop and the FULL record in
the receiver's ``delivered`` there; the handler is called as
``on_message(src, payload)``, the one line of the reference that is not
the parent's), the wake pass sweeping the whole
park-order list — and the network's rules the mutable ``Rule`` records
the fault plan's ``Hold`` / ``Drop`` / ``Delay`` literals used to be
converted into, matched by ``Rule.matches``.  Both worlds execute the same script (timers, singles
and broadcasts under delay/hold/drop rules that split a broadcast, two
senders broadcasting into one instant, zero-delay sends and
``release_held`` landing on a block's instant, receivers crashed between
send and delivery or by an earlier member of the same block, handlers
that raise mid-block, ``max_events`` caps and ``until=`` bounds that fall
inside or on a block — and up to ~20 tasks parked on shared conditions
that wake, consume, re-park, spawn parking tasks, crash processes and
send during a wake pass) and must agree on the ordered log of
deliveries and wake-ups, on ``blocked_tasks()``, on every counter, on
``events_processed``, on the message log record for record at FULL (the
Echo log pins the delivery order, so the reference's ``delivered``
histories are not compared) and on ``pending_events()`` after every
``run`` call — also the ones that ended
in an exception — and, for the task scripts, after every instant.  A
task never raises inside a wake pass here: the reference loses every
task parked behind one that does (``tests/sim/test_simulator.py`` pins
the fix).  Seeded bugs in the new paths must each be caught by the same
comparison.
"""

import heapq
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial
from heapq import heappush
from typing import Any, Callable, FrozenSet, Hashable, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.conditions import AckSet, Check
from repro.sim.network import (
    DROP, HOLD, Delay, Drop, Hold, Message, Network, TraceLevel,
)
from repro.sim.process import Process
from repro.sim.simulator import _NO_ARG, Block, Simulator
from repro.sim.tasks import WaitUntil
from tests.differential import (
    DIFFERENTIAL, Divergence, agree, assert_killed, each_mutant,
)

ProcessId = Hashable

PIDS = ("a", "b", "c", "d")
GATES = 3
Payload = namedtuple("Payload", "kind key")


class Boom(Exception):
    """What the script's raising handlers raise."""


# -- the reference: one queue entry per message, verbatim -----------------------

class ReferenceSimulator(Simulator):
    def __init__(self):
        super().__init__()
        self._park_order = []
        self._signalled = []
        self._signalled_set = set()

    def run(self, until=None, max_events=1_000_000):
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        processed = self._events_processed
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                self.now = time
                while queue and queue[0][0] == time:
                    _, _, action, arg = pop(queue)
                    if arg is no_arg:
                        action()
                    else:
                        action(arg)
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; "
                            "livelock suspected"
                        )
                if self._signalled:
                    self._wake_tasks()
        finally:
            self._events_processed = processed
        if until is not None and self.now < until:
            self.now = until
            self._wake_tasks()

    def pending_events(self):
        return len(self._queue)

    # The park-order sweep.

    def _park_on(self, condition, task):
        waiters = self._waiters.get(condition)
        if waiters is None:
            self._waiters[condition] = [task]
            condition._sim = self
        else:
            waiters.append(task)
        self._park_order.append(task)

    def _unpark(self, condition, task):
        waiters = self._waiters.get(condition)
        if waiters is not None:
            waiters.remove(task)
            if not waiters:
                del self._waiters[condition]
                condition._sim = None

    def _signal(self, condition):
        if condition in self._waiters and condition not in self._signalled_set:
            self._signalled_set.add(condition)
            self._signalled.append(condition)

    def _wake_tasks(self):
        while self._signalled:
            batch = self._signalled
            self._signalled = []
            self._signalled_set.clear()
            touched = set()
            for condition in batch:
                waiters = self._waiters.get(condition)
                if waiters is not None:
                    touched.update(waiters)
            if not touched:
                continue
            order = self._park_order
            self._park_order = []
            for task in order:
                effect = task.waiting_on
                if (
                    task in touched
                    and effect is not None
                    and effect.condition.holds()
                ):
                    self._unpark(effect.condition, task)
                    task.waiting_on = None
                    self._advance(task)  # re-parks append in place
                else:
                    self._park_order.append(task)

    def blocked_tasks(self):
        return tuple(self._park_order)


@dataclass
class Rule:
    """A latency override.

    Matches when every provided criterion holds:

    * ``src`` / ``dst`` — sets of process ids (``None`` = any),
    * ``after`` / ``until`` — send-time window ``[after, until)``,
    * ``payload_predicate`` — arbitrary predicate on the payload.

    ``action`` is a float delay, :data:`HOLD` (in transit forever, until
    released), or :data:`DROP` (lost; consensus-model channels only).
    A delay must be a number ``>= 0``: it is checked here, where it is
    declared, so that no ``send`` can fail half-way on a bad rule.
    """

    action: Any
    src: Optional[FrozenSet[ProcessId]] = None
    dst: Optional[FrozenSet[ProcessId]] = None
    after: float = float("-inf")
    until: float = float("inf")
    payload_predicate: Optional[Callable[[Any], bool]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.action == HOLD or self.action == DROP:
            return
        try:
            delay = float(self.action)
        except (TypeError, ValueError):
            delay = float("nan")
        if not delay >= 0:  # negative or NaN
            raise SimulationError(
                f"rule action must be a delay >= 0, {HOLD!r} or {DROP!r}; "
                f"got {self.action!r}"
            )
        self.action = delay

    def matches(self, src: ProcessId, dst: ProcessId, payload: Any, time: float) -> bool:
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        if not (self.after <= time < self.until):
            return False
        if self.payload_predicate is not None and not self.payload_predicate(payload):
            return False
        return True


def receive(process, message):
    """``Process.receive``: the network's entry point into a process."""
    if process.crashed:
        return
    if process.network.full_trace:
        process.delivered.append(message)
    process.on_message(message.src, message.payload)


class ReferenceNetwork(Network):
    #: Shadows the shipped network's ``log`` property: here the log is
    #: the list every send appends its record to.
    log = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        # The dropped records the parent kept beside its log (the
        # shipped network's are the log entries with ``dropped`` set).
        self.dropped = []
        # The METRICS per-register send tally the parent kept.
        self._sent_by_key = {}

    def send(self, src, dst, payload):
        if dst not in self._processes:
            raise SimulationError(f"unknown destination {dst!r}")
        sim = self.sim
        now = sim.now
        message = Message(src, dst, payload, now)
        self.sent_count += 1
        if self.full_trace:
            self.log.append(message)
        else:
            key = getattr(payload, "key", None)
            if key is not None:
                self._sent_by_key[key] = self._sent_by_key.get(key, 0) + 1
        delay = self.delta
        if self._rules:
            action = self._resolve(message)
            if action == HOLD:
                message.held = True
                self.held_count += 1
                self.in_transit.append(message)
                return message
            if action == DROP:
                message.dropped = True
                self.dropped_count += 1
                if self.full_trace:
                    self.dropped.append(message)
                return message
            delay = action
        deliver_time = now + delay
        if deliver_time < now:
            raise SimulationError(
                f"cannot schedule in the past: {deliver_time} < now={now}"
            )
        message.deliver_time = deliver_time
        heappush(sim._queue, (deliver_time, sim._seq, self._deliver, message))
        sim._seq += 1
        return message

    def send_all(self, src, destinations, payload):
        send = self.send
        for dst in destinations:
            send(src, dst, payload)

    def _resolve(self, message):
        key = (message.src, message.dst)
        candidates = self._rule_index.get(key)
        if candidates is None:
            candidates = tuple(
                rule
                for rule in self._rules
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

    def _deliver(self, message):
        self.delivered_count += 1
        receive(self._processes[message.dst], message)

    def release_held(self, predicate=None, delay=0.0):
        if not delay >= 0:  # negative or NaN: refuse before releasing any
            raise SimulationError(f"release delay must be >= 0, got {delay}")
        deliver_time = self.sim.now + delay
        released = 0
        remaining = []
        for message in self.in_transit:
            if predicate is None or predicate(message):
                message.held = False
                message.deliver_time = deliver_time
                self.sim.call_at(deliver_time, self._deliver, message)
                released += 1
            else:
                remaining.append(message)
        self.in_transit = remaining
        return released


# -- one world: a simulator, a network, four echoing processes ---------------

class Echo(Process):
    """Logs every delivery, counts it on a condition and reacts to its
    kind — so traffic is also sent, receivers crashed and exceptions
    raised from inside handlers."""

    def __init__(self, pid, log):
        super().__init__(pid)
        self.log = log
        self.got = AckSet(f"got@{pid}")      # one member per delivery
        # What the reference's ``receive`` records at FULL; the shipped
        # network keeps no per-process history.
        self.delivered = []

    def on_message(self, src, payload):
        kind, key = payload
        self.log.append((self.sim.now, "deliver", src, self.pid, payload))
        self.got.add(len(self.got))
        if kind == "req":
            self.send(src, Payload("ack", key))
        elif kind == "fan":
            self.send_all(PIDS, Payload("ack", key))
        elif kind == "kill":
            # Crashes the next process: under a broadcast that is a
            # later member of the block being delivered.
            after = PIDS[(PIDS.index(self.pid) + 1) % len(PIDS)]
            self.network.process(after).crash()
        elif kind == "boom" and self.pid == PIDS[key]:
            raise Boom()      # one receiver of a broadcast, not all


class World:
    def __init__(self, sim_cls, net_cls, script, trace_level):
        self.log = []
        self.sim = sim_cls()
        # The reference converts each spec to a Rule; the network under
        # test takes the fault plan's own literal.
        make = Rule if issubclass(net_cls, ReferenceNetwork) else literal
        self.net = net_cls(
            self.sim, delta=script["delta"],
            rules=[make(*spec) for spec in script["rules"]],
            trace_level=trace_level,
        )
        self.procs = {pid: Echo(pid, self.log).bind(self.net) for pid in PIDS}
        # Shared conditions for the scripted tasks: gate ``g`` holds
        # while it has a token; a task that takes one may leave the
        # waiters behind it parked.
        self.tokens = [0] * GATES
        self.gates = [
            Check(lambda g=g: self.tokens[g] > 0, f"gate{g}")
            for g in range(GATES)
        ]
        self.made = 0
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
            self.log.append((self.sim.now, "wake", pid, None, len(process.got)))
            process.send(PIDS[0], Payload("woke", seen))

    def programmed(self, name, stages):
        """A task that waits on one gate per stage and, woken, does the
        stage's action — inside the wake pass — before it re-parks on
        the next stage's gate."""
        for number, (gate, action) in enumerate(stages):
            yield WaitUntil(self.gates[gate])
            self.log.append(
                (self.sim.now, "woke", name, number, tuple(self.tokens))
            )
            other = (gate + 1) % GATES
            if action == "take":
                self.tokens[gate] -= 1
            elif action == "give":
                self.tokens[other] += 1
                self.gates[other].signal()
            elif action == "spawn":
                child = f"{name}.{number}"
                self.sim.spawn(
                    self.programmed(child, ((other, "take"),)), name=child
                )
            elif action == "crash":
                self.procs[PIDS[gate]].crash()
            elif action == "send":
                self.procs[PIDS[gate]].send(PIDS[other], Payload("req", gate))
            elif action == "sleep":
                yield WaitUntil(self.sim.timer_at(self.sim.now + 0.5))

    def mark(self, handler, *rest):
        self.log.append((self.sim.now, handler) + rest)

    # Script steps: each returns the zero-argument action run at its time.

    def do_timer(self, label):
        return lambda: self.mark("timer", label, None, None)

    def do_send(self, src, dst, kind, key):
        return lambda: self.procs[src].send(dst, Payload(kind, key))

    def do_broadcast(self, src, kind, key, destinations=PIDS):
        return lambda: self.procs[src].send_all(
            destinations, Payload(kind, key)
        )

    def do_release(self, delay):
        return lambda: self.mark(
            "release", None, None, self.net.release_held(delay=delay)
        )

    def do_crash(self, pid):
        return self.procs[pid].crash

    def do_sleeper(self, duration):
        def nap():
            yield WaitUntil(self.sim.timer_at(self.sim.now + duration))
            self.mark("slept", duration, None, None)

        return lambda: self.sim.spawn(nap(), name=f"sleeper({duration})")

    def do_boom(self):
        def boom():
            self.mark("boom", None, None, None)
            raise Boom()

        return boom

    def do_task(self, stages):
        name = f"task{self.made}"
        self.made += 1
        return lambda: self.sim.spawn(self.programmed(name, stages), name=name)

    def do_grant(self, gate, tokens):
        def grant():
            self.tokens[gate] += tokens
            self.gates[gate].signal()

        return grant

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
            # Below FULL the shipped log refuses to be read; the
            # reference's stays an empty list.
            "net_log": (
                [self.record(m) for m in net.log] if net.full_trace else None
            ),
            "net_dropped": [
                self.record(m) for m in (
                    net.dropped if isinstance(net, ReferenceNetwork)
                    else [m for m in net.log if m.dropped]
                )
            ] if net.full_trace else None,
            "crashed": [pid for pid, proc in self.procs.items() if proc.crashed],
            "tokens": list(self.tokens),
            "log": list(self.log),
        }

    @staticmethod
    def record(message):
        return (message.src, message.dst, message.payload, message.send_time,
                message.deliver_time, message.held, message.dropped)

    def call(self, until, max_events):
        """One ``run`` call: how it ended, and the world's state after."""
        try:
            self.sim.run(until=until, max_events=max_events)
            self.ended = "returned"
        except (Boom, SimulationError) as exc:
            self.ended = f"{type(exc).__name__}: {exc}"
        return self.ended, self.snapshot()

    def calls(self, script):
        """A script's ``run`` calls as ``(until, max_events)``: one per
        phase, then drain (a raising handler ends a call, so draining
        may take many) — or, with a ``last`` instant, ``run(until=t)``
        for every instant ``t`` of the half-unit grid up to it (again
        while a raise cuts one short), then drain."""
        if "last" not in script:
            yield from script["phases"]
            made = len(script["phases"])
            while self.sim.pending_events() and made < 120:
                yield None, 10_000
                made += 1
            return
        last = script["last"]
        for until in [half * 0.5 for half in range(int(2 * last) + 1)] + [None]:
            for _ in range(20):
                yield until, 10_000
                if self.ended == "returned":
                    break


def literal(action, src=None, dst=None, after=float("-inf"),
            until=float("inf")):
    """The fault-plan literal a rule spec ``(action, src, dst, after,
    until)`` is written as."""
    if action == HOLD:
        return Hold(src, dst, after, until)
    if action == DROP:
        return Drop(src, dst, after, until)
    return Delay(action, src, dst, after, until)


REFERENCE = (ReferenceSimulator, ReferenceNetwork)
CURRENT = (Simulator, Network)


def run_call(world, call):
    ended, state = world.call(*call)
    return {"ended": ended, **state}


def differential(script, current=CURRENT):
    for trace_level in (TraceLevel.FULL, TraceLevel.METRICS):
        reference = World(*REFERENCE, script, trace_level)
        agree(reference, World(*current, script, trace_level),
              reference.calls(script), run_call)
        assert reference.sim.pending_events() == 0, "script does not drain"


# -- generated scripts -----------------------------------------------------

times = st.integers(0, 10).map(lambda half: half * 0.5)   # many equal times
pids = st.sampled_from(PIDS)
pid_sets = st.none() | st.frozensets(pids, min_size=1, max_size=3)
keys = st.integers(0, 2)
kinds = st.sampled_from(("req", "req", "note", "note", "fan", "kill", "boom"))
rule_specs = st.tuples(
    st.sampled_from((0.0, 0.0, 0.5, 1, 2.5, HOLD, DROP)),
    pid_sets, pid_sets,
    st.sampled_from((float("-inf"), 1.0, 2.5)),
    st.sampled_from((float("inf"), 2.0, 4.0)),
)
broadcasts = st.tuples(
    st.just("broadcast"), times, pids, kinds, keys,
    # Mostly everybody; also subsets, repeats and nobody.
    st.just(PIDS) | st.just(PIDS) | st.lists(pids, max_size=5).map(tuple),
)
steps = st.one_of(
    st.tuples(st.just("timer"), times, st.integers(0, 9)),
    st.tuples(st.just("send"), times, pids, pids, kinds, keys),
    broadcasts,
    broadcasts,
    st.tuples(st.just("release"), times, st.sampled_from((0, 0.0, 0.5, 3.0))),
    st.tuples(st.just("crash"), times, pids),
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


@settings(DIFFERENTIAL, max_examples=250,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts)
def test_block_message_path_matches_the_per_message_event_loop(script):
    differential(script)


gates = st.integers(0, GATES - 1)
actions = st.sampled_from(
    ("log", "take", "take", "give", "spawn", "crash", "send", "sleep")
)
tasks = st.tuples(
    st.just("task"), times,
    st.lists(st.tuples(gates, actions), min_size=1, max_size=4).map(tuple),
)
grants = st.tuples(st.just("grant"), times, gates, st.integers(1, 4))
task_scripts = st.fixed_dictionaries({
    "delta": st.sampled_from((1.0, 0.5)),
    "rules": st.lists(rule_specs, max_size=2),
    "steps": st.tuples(
        st.lists(tasks, min_size=1, max_size=16),
        st.lists(grants, min_size=1, max_size=12),
        st.lists(steps, max_size=6),
    ).map(lambda parts: parts[0] + parts[1] + parts[2]),
    "last": st.just(8.0),
})


@settings(DIFFERENTIAL, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(task_scripts)
def test_the_wake_pass_matches_the_park_order_sweep(script):
    differential(script)


# -- scripted flows (each also the script that kills a mutant) -----------------

INF = float("inf")
NEG_INF = float("-inf")
SCRIPTS = {
    # Two timers, two unicasts and a broadcast all land at t=1.0 and at
    # t=2.0; the acks they trigger tie again.  The second unicast's
    # delivery ``(src, dst, payload)`` sorts before the first's, so a
    # tie the heap broke on the delivery would reorder them.
    "ties": {
        "delta": 1.0, "rules": [], "phases": [],
        "steps": [
            ("timer", 1.0, 1), ("send", 0.0, "c", "b", "req", 1),
            ("send", 0.0, "a", "b", "req", 0), ("timer", 1.0, 2),
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
            (HOLD, None, frozenset("c"), NEG_INF, 1.5),
            (0.0, frozenset("d"), frozenset("a"), NEG_INF, INF),
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
    # One broadcast, four fates: b slow (lands at 3.0), c held, d dropped,
    # a on time.  a's second broadcast (sent at 1.0, no rule left in its
    # window) and the released c all land at 2.0, b's slow copy after them.
    "split-broadcast": {
        "delta": 1.0, "phases": [],
        "rules": [
            (3.0, frozenset("a"), frozenset("b"), NEG_INF, 0.5),
            (HOLD, frozenset("a"), frozenset("c"), NEG_INF, 0.5),
            (DROP, frozenset("a"), frozenset("d"), NEG_INF, 0.5),
        ],
        "steps": [
            ("broadcast", 0.0, "a", "req", 0), ("broadcast", 1.0, "a", "note", 1),
            ("release", 1.0, 1.0), ("timer", 2.0, 5),
        ],
    },
    # Two senders broadcast into t=1.0 around a single and two timers; a
    # zero-delay link sends into the instant while its blocks are being
    # walked, and the cap of the first call trips one member into the
    # first block.  The second call's cap is already exceeded when it
    # starts: it runs one event all the same, the next member.
    "two-senders": {
        "delta": 1.0, "phases": [(None, 5), (None, 2), (1.0, 50)],
        "rules": [(0.0, frozenset("b"), frozenset("a"), NEG_INF, INF)],
        "steps": [
            ("broadcast", 0.0, "a", "req", 0), ("send", 0.0, "c", "b", "note", 1),
            ("timer", 1.0, 1), ("broadcast", 0.0, "d", "req", 2),
            ("timer", 1.0, 2),
        ],
    },
    # The second member of a block raises: the first call ends there, the
    # second (``until`` on the block's own instant) delivers the rest and
    # not the raiser again.
    "boom-mid-block": {
        "delta": 1.0, "rules": [], "phases": [(None, 100), (1.0, 100)],
        "steps": [
            ("broadcast", 0.0, "a", "boom", 1, ("c", "b", "d")),
            ("timer", 1.0, 1), ("broadcast", 0.0, "b", "note", 1),
        ],
    },
    # Every member of the block crashes the next process: b and d are up
    # at send time and when the block is popped, and down at their turn —
    # and for the block behind it.
    "killed-by-its-block": {
        "delta": 1.0, "rules": [], "phases": [(1.0, 100)],
        "steps": [
            ("broadcast", 0.0, "a", "kill", 0), ("broadcast", 0.0, "c", "note", 1),
        ],
    },
    # A destination nobody registered, third of four: the first two are
    # sent, the call raises, the fourth is never looked at.
    "refused-destination": {
        "delta": 1.0, "rules": [], "phases": [],
        "steps": [
            ("broadcast", 0.0, "a", "req", 0, ("b", "c", "nobody", "d")),
            ("timer", 1.0, 1),
        ],
    },
    # task0 parks before task1; at t=1 task1's gate is signalled first.
    "signal-order": {
        "delta": 1.0, "rules": [], "last": 2.0,
        "steps": [
            ("task", 0.0, ((0, "log"),)), ("task", 0.0, ((1, "log"),)),
            ("grant", 1.0, 1, 1), ("grant", 1.0, 0, 1),
        ],
    },
    # Woken at t=1, task0 spawns a child that parks on gate 1, then
    # re-parks on gate 1 itself: both take task0's place, ahead of task1,
    # child first.  Three tokens at t=2 wake them in that order.
    "spawn-in-pass": {
        "delta": 1.0, "rules": [], "last": 3.0,
        "steps": [
            ("task", 0.0, ((0, "spawn"), (1, "log"))),
            ("task", 0.0, ((1, "log"),)),
            ("grant", 1.0, 0, 1), ("grant", 2.0, 1, 3),
        ],
    },
    # Five tasks share gate 0 and take its tokens in park order, the
    # rest staying parked.  At t=3 task4 takes the last token, finds
    # gate 1 open and gives gate 2 a token: task0 wakes in the next pass
    # of the same instant, crashes c under a request in flight and
    # re-parks in its own place, ahead of task5.
    "consumed": {
        "delta": 1.0, "rules": [], "last": 4.0,
        "steps": [
            ("task", 0.0, ((2, "crash"), (0, "log"))),
            *[("task", 0.0, ((0, "take"),)) for _ in range(3)],
            ("task", 0.5, ((0, "take"), (1, "give"))),
            ("task", 0.5, ((0, "take"),)),
            ("grant", 1.0, 0, 2), ("grant", 2.0, 0, 1),
            ("send", 3.0, "a", "c", "req", 0),
            ("grant", 3.0, 0, 1), ("grant", 3.0, 1, 1),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scripted_flows_agree(name):
    differential(SCRIPTS[name])


def run_script(name, trace_level=TraceLevel.FULL):
    """The world after script ``name``, and its state after every run
    call."""
    world = World(*CURRENT, SCRIPTS[name], trace_level)
    return world, [world.call(*call) for call in world.calls(SCRIPTS[name])]


def woken(state):
    return [entry[2] for entry in state["log"] if entry[1] == "woke"]


def delivered_to(world):
    """The receivers whose handler ran, in delivery order."""
    return [entry[3] for entry in world.log if entry[1] == "deliver"]


def test_scripted_flows_exercise_what_they_claim():
    world, _ = run_script("rules")
    assert world.net.dropped_count and world.net.held_count
    assert any(m.deliver_time == m.send_time for m in world.net.log)
    released = [entry for entry in world.log if entry[1] == "release"]
    assert released and released[0][-1] > 0

    world, seen = run_script("interrupted")
    ends = [ended for ended, _ in seen]
    assert ends[0].startswith("SimulationError: exceeded 4 events")
    assert ends[1].startswith("Boom") and ends[-1] == "returned"
    assert "b" not in delivered_to(world)             # crashed before t=1

    world, _ = run_script("split-broadcast")
    first = [m for m in world.net.log if m.payload == Payload("req", 0)]
    assert [(m.dst, m.deliver_time, m.dropped) for m in first] == [
        ("a", 1.0, False), ("b", 3.0, False), ("c", 2.0, False),
        ("d", None, True),
    ]
    at_two = [e[3] for e in world.log if e[:2] == (2.0, "deliver")]
    assert at_two[:5] == ["a", "b", "c", "d", "c"]    # the block, then c's release

    world, seen = run_script("two-senders")
    ended, state = seen[0]
    assert ended.startswith("SimulationError: exceeded 5 events")
    # Three steps, two timers and one delivery in: three members of a's
    # block, c's single, d's block and one ack are pending — in four
    # queue entries.
    assert (state["events_processed"], state["counters"][1]) == (6, 1)
    assert state["pending"] == 3 + 1 + 4 + 1
    ended, state = seen[1]
    assert ended.startswith("SimulationError: exceeded 2 events")
    assert (state["events_processed"], state["counters"][1]) == (7, 2)

    world, seen = run_script("boom-mid-block")
    assert [ended for ended, _ in seen] == ["Boom: ", "returned", "returned"]
    booms = [e[3] for e in world.log if e[4] == Payload("boom", 1)]
    assert booms == ["c", "b", "d"]                   # once each, in order
    ended, state = seen[0]
    # Two steps, the timer and c; b raised: delivered, not counted as an
    # event, not pending; d and the block of four are.
    assert (state["events_processed"], state["counters"][1]) == (4, 2)
    assert state["pending"] == 1 + 4 and seen[1][1]["now"] == 1.0

    world, seen = run_script("killed-by-its-block")
    ended, state = seen[0]
    assert [e[3] for e in state["log"] if e[1] == "deliver"] == ["a", "c"] * 2
    assert state["crashed"] == ["b", "d"]
    # Crashed receivers are deliveries and events all the same.
    assert (state["events_processed"], state["counters"][1]) == (2 + 8, 8)

    world, seen = run_script("refused-destination")
    ended, state = seen[0]
    assert ended == "SimulationError: unknown destination 'nobody'"
    assert state["counters"][0] == 2 and state["pending"] == 2 + 1

    _, seen = run_script("signal-order")
    assert woken(seen[-1][1]) == ["task0", "task1"]

    _, seen = run_script("spawn-in-pass")
    at_one = [state for _, state in seen if state["now"] == 1.0][-1]
    assert at_one["blocked"][-3:] == ["task0.0", "task0", "task1"]
    assert woken(seen[-1][1]) == ["task0", "task0.0", "task0", "task1"]

    world, seen = run_script("consumed")
    at_one = [state for _, state in seen if state["now"] == 1.0][-1]
    # task1 and task2 took gate 0's two tokens; task3, task4 and task5
    # were polled too and stay parked, in park order.
    assert woken(at_one) == ["task1", "task2"]
    assert at_one["blocked"][-4:] == ["task0", "task3", "task4", "task5"]
    state = seen[-1][1]
    assert woken(state) == [
        "task1", "task2", "task3", "task4", "task4", "task0",
    ]
    assert state["blocked"][-2:] == ["task0", "task5"]
    # The request is delivered (counted) to a crashed c, which drops it:
    # no ack.
    assert state["crashed"] == ["c"] and "c" not in delivered_to(world)
    assert state["counters"][:2] == (1, 1)


# -- seeded mutants of the new paths -----------------------------------------

def mutated_run(pop=heapq.heappop, wake_every_event=False,
                a_block_is_one_event=False, requeue=True, least_room=1):
    """``Simulator.run`` as shipped, with a replaceable pop, an optional
    wake pass after every entry, a per-block count, the choice of
    dropping what a mid-block exit leaves, and no room at all for a
    block under a cap already exceeded."""

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
                    _, seq, action, arg = pop(queue)
                    if type(arg) is Block:
                        size = len(arg)
                        try:
                            action(arg, max(max_events - processed + 1,
                                            least_room))
                        except BaseException:
                            processed -= 1
                            raise
                        finally:
                            if a_block_is_one_event:
                                processed += 1
                            else:
                                processed += size - len(arg)
                            if arg and requeue:
                                heappush(queue, (time, seq, action, arg))
                        if processed > max_events:
                            raise SimulationError(
                                f"exceeded {max_events} events; "
                                "livelock suspected"
                            )
                        if wake_every_event:
                            self._wake_tasks()
                        continue
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
    entry = max((e for e in queue if e[0] == time), key=lambda e: e[:2])
    queue.remove(entry)
    heapq.heapify(queue)
    return entry


def mutated_park_on(slot=True, woken_keeps_its_number=False):
    """``Simulator._park_on`` as shipped, optionally numbering every park
    afresh (what a woken task parks goes to the back) or giving the
    woken task its own old number back whatever parked before it."""

    def _park_on(self, condition, task):
        waiters = self._waiters.get(condition)
        if waiters is None:
            self._waiters[condition] = [task]
            condition._sim = self
        else:
            waiters.append(task)
        if woken_keeps_its_number and self._slot is not None:
            if task is self._woken:
                self._parked[task] = self._slot
            else:
                self._parked[task] = self._parks
                self._parks += 1
            return
        current = self._slot if slot else None
        if current is None:
            self._parked[task] = self._parks
            self._parks += 1
        elif self._slot_tail is None:
            self._parked[task] = current
            self._slot_tail = task
        else:
            self._park_behind(self._slot_tail, task)
            self._slot_tail = task

    return _park_on


def mutated_wake_tasks(in_signal_order=False):
    """``Simulator._wake_tasks`` as shipped (it also notes which task is
    advancing, for :func:`mutated_park_on`), optionally visiting the
    signalled waiters in signal order rather than park order."""

    def _wake_tasks(self):
        parked = self._parked
        waiters_of = self._waiters
        while self._signalled:
            batch = self._signalled
            self._signalled = [] if in_signal_order else set()
            touched = []
            for condition in batch:
                waiters = waiters_of.get(condition)
                if waiters is not None:
                    touched += waiters
            if in_signal_order:
                touched.reverse()
            else:
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
                    self._woken = task
                    self._advance(task)
                    self._slot = None
            except BaseException:
                self._slot = None
                for task in touched:
                    self._signal(task.waiting_on.condition)
                raise

    return _wake_tasks


def mutated_send(resolve_unseen_channels=True, record_held=True,
                 copy_held=False):
    """``Network.send`` as shipped, optionally skipping ``_resolve`` for
    a channel it has not indexed yet — so the index is never built and
    no channel's rules ever apply —, counting a held message without
    building its record, so ``in_transit`` loses it, or logging a copy
    of a held record, so a later release does not show in the log."""

    def send(self, src, dst, payload):
        if dst not in self._processes:
            raise SimulationError(f"unknown destination {dst!r}")
        sim = self.sim
        now = sim.now
        deliver_time = now + self.delta
        message = None
        candidates = self._rule_index.get((src, dst))
        if now < self._rules_until and (
            candidates != () if resolve_unseen_channels else candidates
        ):
            action = self._resolve(src, dst, payload, now)
            if action == HOLD and not record_held:
                self.sent_count += 1
                self.held_count += 1
                return None
            if action == HOLD or action == DROP:
                message = Message(src, dst, payload, now)
                self._withhold(message, action)
            else:
                deliver_time = now + action
        self.sent_count += 1
        if self.full_trace:
            logged = replace(message) if copy_held and message else message
            self._sends.append((src, (dst,), payload, now, deliver_time,
                                None if message is None else {0: logged}))
        if message is None:
            heappush(sim._queue, (deliver_time, sim._seq, self._deliver,
                                  (src, dst, payload)))
            sim._seq += 1
        return message

    return send


def mutated_send_all(one_block=False, held_and_dropped_ride_along=False,
                     resolve_unseen_channels=True, record_held=True,
                     log_delays=True, copy_held=False, log_refused=False):
    """``Network.send_all`` as shipped, optionally with one block per
    broadcast whatever the delays, with held / dropped destinations
    left in the block of the on-time ones, skipping ``_resolve`` for a
    channel not indexed yet, counting a held message without building
    its record — or, in the log, with a delayed member at the default
    time, a copy of a held record, or a refused broadcast whole."""

    def send_all(self, src, destinations, payload):
        sim = self.sim
        now = sim.now
        processes = self._processes
        full_trace = self.full_trace
        if full_trace and type(destinations) is not tuple:
            destinations = tuple(destinations)
        rule_index = self._rule_index if now < self._rules_until else None
        deliver = self._deliver_block
        default_time = now + self.delta
        seq = sim._seq
        sent = 0
        entries = {}
        exceptions = {}
        try:
            for dst in destinations:
                if dst not in processes:
                    raise SimulationError(f"unknown destination {dst!r}")
                deliver_time = default_time
                if rule_index is not None and (
                    rule_index.get((src, dst)) != ()
                    if resolve_unseen_channels
                    else rule_index.get((src, dst))
                ):
                    action = self._resolve(src, dst, payload, now)
                    if action == HOLD or action == DROP:
                        if action == HOLD and not record_held:
                            self.held_count += 1
                        else:
                            message = Message(src, dst, payload, now)
                            self._withhold(message, action)
                            exceptions[sent] = (
                                replace(message) if copy_held else message
                            )
                        if not held_and_dropped_ride_along:
                            sent += 1
                            continue
                    else:
                        deliver_time = now + action
                        if deliver_time != default_time and log_delays:
                            exceptions[sent] = deliver_time
                sent += 1
                key_time = "any" if one_block else deliver_time
                entry = entries.get(key_time)
                if entry is None:
                    entry = (deliver_time, seq, deliver, Block())
                    entries[key_time] = entry
                entry[3].append((src, dst, payload))
                seq += 1
        finally:
            self.sent_count += sent
            if full_trace and sent:
                if sent < len(destinations) and not log_refused:
                    destinations = destinations[:sent]
                self._sends.append((src, destinations, payload, now,
                                    default_time, exceptions or None))
            queue = sim._queue
            for entry in entries.values():
                entry[3].reverse()
                heappush(queue, entry)
            sim._seq = seq

    return send_all


def mutated_deliver(serve_crashed=False, src_is_dst=False):
    """``Network._deliver`` as shipped, optionally handing a crashed
    receiver its message or handing the handler the receiver as the
    sender."""

    def _deliver(self, delivery):
        self.delivered_count += 1
        src, dst, payload = delivery
        process = self._processes[dst]
        if process.crashed and not serve_crashed:
            return
        process.on_message(dst if src_is_dst else src, payload)

    return _deliver


def mutated_deliver_block(honour_room=True, pop_first=True,
                          count_members=True, serve_crashed=False,
                          src_is_dst=False):
    """``Network._deliver_block`` as shipped, optionally deaf to
    ``room``, popping a member only after it ran, counting a call as one
    delivery, handing crashed receivers their messages, or handing the
    handler the receiver as the sender."""

    def _deliver_block(self, block, room):
        processes = self._processes
        if not count_members:
            self.delivered_count += 1
        for _ in range(min(len(block), room) if honour_room else len(block)):
            src, dst, payload = block.pop() if pop_first else block[-1]
            if count_members:
                self.delivered_count += 1
            process = processes[dst]
            if not process.crashed or serve_crashed:
                process.on_message(dst if src_is_dst else src, payload)
            if not pop_first:
                block.pop()

    return _deliver_block


class FaithfulCopy(Simulator):
    """No mutation: the harness the mutants are built from is the loop
    and the wake pass."""
    run = mutated_run()
    _park_on = mutated_park_on()
    _wake_tasks = mutated_wake_tasks()


class FaithfulNetworkCopy(Network):
    send = mutated_send()
    send_all = mutated_send_all()
    _deliver = mutated_deliver()
    _deliver_block = mutated_deliver_block()


class LifoTieBreak(Simulator):
    run = mutated_run(pop=pop_newest)


class WakesBetweenEvents(Simulator):
    run = mutated_run(wake_every_event=True)


class BlockCountedAsOneEvent(Simulator):
    run = mutated_run(a_block_is_one_event=True)


class RestOfBlockLostAfterRaise(Simulator):
    run = mutated_run(requeue=False)


class NoRoomUnderAnExceededCap(Simulator):
    run = mutated_run(least_room=0)


class PendingCountsEntries(Simulator):
    def pending_events(self):
        return len(self._queue)


class WakesInSignalOrder(Simulator):
    def __init__(self):
        super().__init__()
        self._signalled = []

    def _signal(self, condition):
        if condition in self._waiters and condition not in self._signalled:
            self._signalled.append(condition)

    _wake_tasks = mutated_wake_tasks(in_signal_order=True)


class ReparkKeepsItsNumber(Simulator):
    _park_on = mutated_park_on(woken_keeps_its_number=True)
    _wake_tasks = mutated_wake_tasks()


class ReparkGoesToTheBack(Simulator):
    _park_on = mutated_park_on(slot=False)


class SkippedSeq(Network):
    """Every second delivery reuses the sequence number before it."""

    def send(self, src, dst, payload):
        message = super().send(src, dst, payload)
        queued = message is None            # a withheld message has a record
        if queued and self.sent_count % 2:
            self.sim._seq -= 1
        return message


class DroppedCountsAsDelivered(Network):
    def send(self, src, dst, payload):
        message = super().send(src, dst, payload)
        if message is not None and message.dropped:
            self.delivered_count += 1
        return message


class DelaysShareABlock(Network):
    send_all = mutated_send_all(one_block=True)


class HeldAndDroppedRideAlong(Network):
    send_all = mutated_send_all(held_and_dropped_ride_along=True)


class DeliveredCountedPerBlock(Network):
    _deliver_block = mutated_deliver_block(count_members=False)


class RaiserRedelivered(Network):
    _deliver_block = mutated_deliver_block(pop_first=False)


class CapIgnoredInsideABlock(Network):
    _deliver_block = mutated_deliver_block(honour_room=False)


class CrashedReceiverServed(Network):
    _deliver = mutated_deliver(serve_crashed=True)
    _deliver_block = mutated_deliver_block(serve_crashed=True)


class RuledChannelsSkipResolve(Network):
    send = mutated_send(resolve_unseen_channels=False)
    send_all = mutated_send_all(resolve_unseen_channels=False)


class HandsTheReceiverAsSender(Network):
    _deliver = mutated_deliver(src_is_dst=True)
    _deliver_block = mutated_deliver_block(src_is_dst=True)


class HeldWithoutARecord(Network):
    send = mutated_send(record_held=False)
    send_all = mutated_send_all(record_held=False)


class DelayLoggedAtTheDefaultTime(Network):
    send_all = mutated_send_all(log_delays=False)


class LogCopiesAHeldRecord(Network):
    send = mutated_send(copy_held=True)
    send_all = mutated_send_all(copy_held=True)


class RefusedBroadcastLoggedWhole(Network):
    send_all = mutated_send_all(log_refused=True)


MUTANTS = {
    LifoTieBreak: ((LifoTieBreak, Network), "ties"),
    WakesBetweenEvents: ((WakesBetweenEvents, Network), "same-instant-wake"),
    BlockCountedAsOneEvent: ((BlockCountedAsOneEvent, Network), "two-senders"),
    RestOfBlockLostAfterRaise: ((RestOfBlockLostAfterRaise, Network),
                                "boom-mid-block"),
    RaiserRedelivered: ((Simulator, RaiserRedelivered), "boom-mid-block"),
    CapIgnoredInsideABlock: ((Simulator, CapIgnoredInsideABlock),
                             "two-senders"),
    NoRoomUnderAnExceededCap: ((NoRoomUnderAnExceededCap, Network),
                               "two-senders"),
    PendingCountsEntries: ((PendingCountsEntries, Network), "two-senders"),
    SkippedSeq: ((Simulator, SkippedSeq), "ties"),
    DroppedCountsAsDelivered: ((Simulator, DroppedCountsAsDelivered), "rules"),
    DelaysShareABlock: ((Simulator, DelaysShareABlock), "split-broadcast"),
    HeldAndDroppedRideAlong: ((Simulator, HeldAndDroppedRideAlong),
                              "split-broadcast"),
    DeliveredCountedPerBlock: ((Simulator, DeliveredCountedPerBlock),
                               "killed-by-its-block"),
    WakesInSignalOrder: ((WakesInSignalOrder, Network), "signal-order"),
    ReparkKeepsItsNumber: ((ReparkKeepsItsNumber, Network), "spawn-in-pass"),
    ReparkGoesToTheBack: ((ReparkGoesToTheBack, Network), "spawn-in-pass"),
    CrashedReceiverServed: ((Simulator, CrashedReceiverServed), "interrupted"),
    RuledChannelsSkipResolve: ((Simulator, RuledChannelsSkipResolve), "rules"),
    HandsTheReceiverAsSender: ((Simulator, HandsTheReceiverAsSender), "ties"),
    HeldWithoutARecord: ((Simulator, HeldWithoutARecord), "rules"),
    DelayLoggedAtTheDefaultTime: ((Simulator, DelayLoggedAtTheDefaultTime),
                                  "split-broadcast"),
    LogCopiesAHeldRecord: ((Simulator, LogCopiesAHeldRecord),
                           "split-broadcast"),
    RefusedBroadcastLoggedWhole: ((Simulator, RefusedBroadcastLoggedWhole),
                                  "refused-destination"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_the_mutant_harness_is_the_shipped_path(name):
    differential(SCRIPTS[name], (FaithfulCopy, FaithfulNetworkCopy))


@each_mutant(MUTANTS)
def test_seeded_mutants_are_killed(mutant):
    world, script = MUTANTS[mutant]
    # A reused sequence number either reorders a tie or makes the heap
    # compare two handlers (TypeError): both are a kill.
    assert_killed(partial(differential, SCRIPTS[script]), CURRENT, world,
                  dies_of=TypeError if mutant is SkippedSeq else Divergence)
