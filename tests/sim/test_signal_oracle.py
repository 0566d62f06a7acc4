"""Differential oracle for threshold signals.

A count threshold (``AckSet.at_least``) signals its waiters once, when
the set reaches ``needed`` members, and a set keeps one threshold
condition per ``needed``; ``includes_quorum`` waits keep signalling
on every change, and a discovery query keeps its responder set beside
its replies.  The containers that signalled every derived condition on every change — and
made a new one per ``at_least`` call — live on *only here*, verbatim,
as the ``Reference*`` classes below.  Both worlds run the same script
(adds and duplicate adds, several thresholds on one set, thresholds
asked for twice, a timer then a threshold, quorum checks, discovery
queries and their late replies, keys discarded into the pool and
recycled, tasks left parked) on one simulator each, and must agree after every simulated instant on the
order tasks woke in, on ``holds()`` of every condition a task waited on,
on task results and on the distinct thresholds each live container
holds.  Seeded bugs in the new containers must each be caught by the
same comparison.
"""

from collections import namedtuple
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.conditions import (
    AckSet,
    Check,
    Condition,
    ConditionMap,
    SizeAtLeast,
    Timer,
)
from repro.sim.simulator import Simulator
from repro.sim.tasks import WaitUntil
from repro.storage.stamping import DiscoveryInbox
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant


# -- the reference: a signal per change, a condition per call, verbatim -----

class ReferenceAckSet(set):
    """A growing responder-id set that signals derived conditions.

    A real ``set`` subclass, so existing quorum idioms — ``q <= acks``,
    ``len(acks) >= k``, comprehension membership — keep working on it
    unchanged.  Only :meth:`add` is instrumented; protocol responder
    sets are append-only.
    """

    __slots__ = ("label", "_derived")

    def __init__(self, label: str = ""):
        super().__init__()
        self.label = label
        self._derived: List[Condition] = []

    def add(self, member: Hashable) -> None:
        if member not in self:
            super().add(member)
            for condition in self._derived:
                condition.signal()

    def at_least(self, needed: int, label: str = "") -> Condition:
        """Wait for the set to reach ``needed`` members."""
        condition = ReferenceSizeAtLeast(
            self, needed, label or f"{self.label}>={needed}"
        )
        self._derived.append(condition)
        return condition

    def includes_quorum(
        self, contains_quorum: Callable[["ReferenceAckSet"], bool], label: str = ""
    ) -> Condition:
        """Wait until some quorum is fully contained in the set, as
        decided by ``contains_quorum(acks)`` — the quorum system's own
        containment test (``rqs.contains_quorum``)."""
        condition = Check(
            partial(contains_quorum, self), label or f"{self.label} quorum"
        )
        self._derived.append(condition)
        return condition

    def reset(self, label: str = "") -> None:
        """Return the set to its freshly-constructed state so a
        :class:`ReferenceConditionMap` can recycle it for a new key.
        Derived conditions are orphaned — their waiters must all have
        resumed before the owning key is discarded (the pooling
        contract)."""
        self.clear()
        self.label = label
        self._derived.clear()


class ReferenceSizeAtLeast(Condition):
    """``len(acks) >= needed`` (created via :meth:`ReferenceAckSet.at_least`)."""

    __slots__ = ("_acks", "_needed")

    def __init__(self, acks: ReferenceAckSet, needed: int, label: str = ""):
        super().__init__(label)
        self._acks = acks
        self._needed = needed

    def holds(self) -> bool:
        return len(self._acks) >= self._needed


class ReferenceConditionMap:
    """Lazy keyed factory for signalling containers.

    Protocols keep one :class:`ReferenceAckSet` per logical key
    (a timestamp, a round, a ballot); this wraps the get-or-create
    boilerplate and the label formatting in one place::

        self._acks = ReferenceConditionMap(ReferenceAckSet, "wr ts={} rnd={}")
        ...
        self._acks(ts, rnd).add(src)

    Discarded containers that expose a ``reset`` method (both built-in
    factories do) are parked on a small free list and recycled by the
    next :meth:`__call__`, so a streaming client allocates O(pool) ack
    sets over a million-op run instead of one per operation.
    """

    __slots__ = ("_factory", "_label", "_items", "_pool")

    #: Recycled containers retained per map; past this they are freed.
    _POOL_LIMIT = 16

    def __init__(self, factory: Callable[[str], Any], label: str = ""):
        self._factory = factory
        self._label = label
        self._items: dict = {}
        self._pool: List[Any] = []

    def __call__(self, *key: Hashable) -> Any:
        item = self._items.get(key)
        if item is None:
            label = self._label.format(*key) if self._label else ""
            if self._pool:
                item = self._pool.pop()
                item.reset(label)
            else:
                item = self._factory(label)
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

    def __len__(self) -> int:
        return len(self._items)


class ReferenceDiscoveryInbox:
    """Reply bookkeeping for numbered discovery queries.

    :meth:`open` starts a query; :meth:`record` files one sender's
    reply (deduplicated) into the query's signalling responder
    :class:`~repro.sim.conditions.AckSet` — wait on
    :meth:`responders` ``.at_least(k)`` (count quorums) or
    ``.includes_quorum(rqs.contains_quorum)`` (identity quorums); :meth:`close`
    retires the query and hands back the collected replies.
    """

    __slots__ = ("_next", "_pending", "_acks")

    def __init__(self, label: str = "ts-discovery#{}"):
        self._next = 0
        self._pending: Dict[int, Dict[Hashable, Any]] = {}
        self._acks = ReferenceConditionMap(ReferenceAckSet, label)

    def open(self) -> int:
        self._next += 1
        self._pending[self._next] = {}
        return self._next

    def record(self, number: int, sender: Hashable, reply: Any) -> None:
        """File ``reply`` for query ``number`` (no-op if the query is
        closed or the sender already answered)."""
        replies = self._pending.get(number)
        if replies is not None and sender not in replies:
            replies[sender] = reply
            self._acks(number).add(sender)

    def responders(self, number: int) -> ReferenceAckSet:
        """The query's signalling responder set (for wait conditions)."""
        return self._acks(number)

    def close(self, number: int) -> Dict[Hashable, Any]:
        """Retire the query and return sender → reply.

        Also drops the query's responder set, so long-running writers
        keep O(in-flight) discovery state (late replies to a closed
        query are already no-ops in :meth:`record`)."""
        self._acks.discard(number)
        return self._pending.pop(number)


# -- one world: a simulator, two keyed maps, a discovery inbox ----------------

QUORUMS = (frozenset({0, 1}), frozenset({1, 2, 3}))


def contains_quorum(acks):
    return any(quorum <= acks for quorum in QUORUMS)


def reference_derived(container):
    """Distinct thresholds and the number of quorum checks a reference
    container signals."""
    derived = container._derived
    return (
        sorted({c._needed for c in derived if not isinstance(c, Check)}),
        sum(isinstance(c, Check) for c in derived),
    )


def current_derived(container):
    return sorted(container._thresholds), len(getattr(container, "_checks", ()))


Impl = namedtuple("Impl", "ack_set condition_map inbox derived")
REFERENCE = Impl(ReferenceAckSet, ReferenceConditionMap,
                 ReferenceDiscoveryInbox, reference_derived)
CURRENT = Impl(AckSet, ConditionMap, DiscoveryInbox, current_derived)


class World:
    """Script steps are ``(kind, time, *args)``; ``spawn`` starts a
    client whose plan is a list of ``(wait, key, k, retire)``."""

    def __init__(self, impl, script):
        self.impl = impl
        self.sim = Simulator()
        self.acks = impl.condition_map(impl.ack_set, "acks {}")
        self.inbox = impl.inbox("query#{}")
        self.log = []
        self.waited = []       # every condition a client waited on
        self.labels = []       # ... and its label when it was made
        self.tasks = []
        for step in script:
            self.sim.call_at(float(step[1]), getattr(self, "do_" + step[0])(*step[2:]))

    def conditions(self, wait, key, k):
        """What one plan step waits on, one condition after another."""
        if wait == "size":
            return (self.acks(key).at_least(k),)
        if wait == "quorum":
            return (self.acks(key).includes_quorum(contains_quorum),)
        assert wait == "timer"
        return (self.sim.timer_at(self.sim.now + k),
                self.acks(key).at_least(2))

    def client(self, name, plan):
        woke = []
        for wait, key, k, retire in plan:
            if wait == "query":
                number = self.inbox.open()
                conditions = (self.inbox.responders(number).at_least(k),)
            else:
                conditions = self.conditions(wait, key, k)
            # Labels as made: a "timer" step's threshold is made before
            # the timer fires, and a discard meanwhile may recycle its set.
            labels = [condition.label for condition in conditions]
            for condition, label in zip(conditions, labels):
                self.waited.append(condition)
                self.labels.append(label)
                yield WaitUntil(condition)
            woke.append(self.sim.now)
            self.log.append((self.sim.now, name, wait, key, k))
            if wait == "query":
                replies = self.inbox.close(number)
                self.log.append((self.sim.now, name, sorted(replies.items())))
            elif retire:
                self.acks.discard(key)
        return woke

    # Script steps: each returns the zero-argument action run at its time.

    def do_add(self, key, member):
        return lambda: self.acks(key).add(member)

    def do_discard(self, key):
        return lambda: self.acks.discard(key)

    def do_reply(self, number, sender):
        return lambda: self.inbox.record(number, sender, f"from {sender}")

    def do_spawn(self, plan):
        name = f"client{len(self.tasks)}"
        self.tasks.append(None)
        index = len(self.tasks) - 1

        def spawn():
            self.tasks[index] = self.sim.spawn(self.client(name, plan), name)

        return spawn

    # -- observing --------------------------------------------------------

    def containers(self, keyed):
        return [
            (key, sorted(item), self.impl.derived(item))
            for key, item in sorted(keyed._items.items())
        ]

    def snapshot(self):
        return {
            "now": self.sim.now,
            "log": list(self.log),
            "holds": [condition.holds() for condition in self.waited],
            "labels": list(self.labels),
            "blocked": [task.name for task in self.sim.blocked_tasks()],
            "results": [(task.done(), task.result) for task in self.tasks
                        if task is not None],
            "acks": self.containers(self.acks),
            "pool": len(self.acks._pool),
            "queries": sorted(self.inbox._pending),
        }


#: ``run(until=t)`` for every instant up to 9, then drain (``None``).
INSTANTS = tuple(range(10)) + (None,)


def advance(world, until):
    if until is None:
        world.sim.run_to_completion(strict=False)
    else:
        world.sim.run(until=float(until))
    return world.snapshot()


def observe(impl, script):
    """The world's state after every instant up to 9, then drained."""
    world = World(impl, script)
    return world, [advance(world, until) for until in INSTANTS]


def differential(script, current=CURRENT):
    agree(World(REFERENCE, script), World(current, script), INSTANTS, advance)


# -- generated scripts -----------------------------------------------------

times = st.integers(0, 6)
keys = st.integers(0, 1)
waits = st.tuples(
    st.sampled_from(("size", "size", "quorum", "quorum", "timer",
                     "query")),
    keys, st.integers(0, 4), st.booleans(),
)
adds = st.tuples(st.just("add"), times, keys, st.integers(0, 3))
events = st.one_of(
    adds, adds, adds,
    st.tuples(st.just("discard"), times, keys),
    st.tuples(st.just("reply"), times, st.integers(1, 2),
              st.sampled_from("abc")),
)
spawns = st.tuples(st.just("spawn"), times,
                   st.lists(waits, min_size=1, max_size=3))
scripts = st.tuples(
    st.lists(spawns, min_size=1, max_size=4),
    st.lists(events, min_size=2, max_size=24),
).map(lambda parts: parts[0] + parts[1])


@settings(DIFFERENTIAL, max_examples=200, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts)
def test_threshold_signals_match_signalling_every_change(script):
    differential(script)


# -- scripted flows (each also the script that kills a mutant) -----------------

SCRIPTS = {
    # The third distinct member (a duplicate in between) wakes the wait.
    "crossing": [
        ("spawn", 0, [("size", 0, 3, False)]),
        ("add", 1, 0, 0), ("add", 2, 0, 1), ("add", 3, 0, 1), ("add", 4, 0, 2),
        ("add", 5, 0, 3),
    ],
    # {1, 2, 3} is a quorum only once 1 arrives — the set's third member,
    # past every threshold but none reached exactly then.
    "quorum": [
        ("spawn", 0, [("quorum", 1, 0, False)]),
        ("add", 1, 1, 2), ("add", 2, 1, 3), ("add", 3, 1, 1),
    ],
    # Thresholds 2 and 4 on one set, 2 asked for twice (one condition),
    # a timer then a threshold, and a wait past anything that arrives.
    "thresholds": [
        ("spawn", 0, [("size", 0, 4, False)]),
        ("spawn", 0, [("size", 0, 2, False), ("size", 0, 2, False)]),
        ("spawn", 0, [("timer", 0, 5, False)]),
        ("spawn", 1, [("size", 0, 9, False)]),
        ("add", 2, 0, 0), ("add", 3, 0, 1), ("add", 3, 0, 4), ("add", 6, 0, 2),
        # Three members on key 1 at 7, none of them a quorum.
        ("add", 7, 1, 3), ("add", 7, 1, 2), ("add", 7, 1, 0),
    ],
    # A retired set is recycled for the next key: it starts empty and with
    # none of its thresholds.
    "recycle": [
        ("spawn", 0, [("size", 0, 2, True)]),
        ("add", 1, 0, 0), ("add", 2, 0, 1),
        ("spawn", 3, [("size", 1, 3, True)]),
        ("add", 4, 1, 0), ("add", 5, 1, 1), ("add", 6, 1, 2),
    ],
    # Two queries; a duplicate reply, one to a query not yet open and
    # a late one after the close.
    "queries": [
        ("spawn", 0, [("query", None, 2, False), ("query", None, 1, False)]),
        ("reply", 1, 1, "a"), ("reply", 2, 1, "a"), ("reply", 2, 2, "c"),
        ("reply", 3, 1, "b"), ("reply", 4, 1, "d"), ("reply", 5, 2, "d"),
    ],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scripted_flows_agree(name):
    differential(SCRIPTS[name])


def test_scripted_flows_exercise_what_they_claim():
    world, seen = observe(CURRENT, SCRIPTS["crossing"])
    assert world.log == [(4.0, "client0", "size", 0, 3)]

    world, seen = observe(CURRENT, SCRIPTS["thresholds"])
    wakes = [(time, name) for time, name, *_ in world.log]
    assert wakes == [(3.0, "client1"), (3.0, "client1"), (5.0, "client2"),
                     (6.0, "client0")]
    two = world.acks(0).at_least(2)       # asked for three times, made once
    assert [c is two for c in world.waited].count(True) == 3
    # ... the third time by client2, once its timer was set at 5.
    assert [type(c) for c in world.waited].count(Timer) == 1
    assert seen[-1]["blocked"] == ["client3"]
    assert seen[-1]["acks"][0] == ((0,), [0, 1, 2, 4], ([2, 4, 9], 0))

    world, seen = observe(CURRENT, SCRIPTS["recycle"])
    first, second = world.waited
    assert first._acks is second._acks       # the recycled set
    assert seen[4]["acks"] == [((1,), [0], ([3], 0))]

    world, _ = observe(CURRENT, SCRIPTS["queries"])
    assert world.log[1] == (3.0, "client0", [("a", "from a"), ("b", "from b")])
    assert world.log[3] == (5.0, "client0", [("d", "from d")])


# -- seeded mutants of the new containers -------------------------------------

class SignalsOneEarly(AckSet):
    """Signals the threshold one member before it is reached."""
    __slots__ = ()

    def add(self, member):
        if member not in self:
            set.add(self, member)
            for check in self._checks:
                check.signal()
            threshold = self._thresholds.get(len(self) + 1)
            if threshold is not None:
                threshold.signal()


class ChecksSilenced(AckSet):
    """Signals thresholds only — quorum checks never hear of a member."""
    __slots__ = ()

    def add(self, member):
        checks, self._checks = self._checks, []
        try:
            super().add(member)
        finally:
            self._checks = checks


class OneMemoForAllK(AckSet):
    """Hands back the first threshold it made whatever ``needed`` is."""
    __slots__ = ()

    def at_least(self, needed):
        for threshold in self._thresholds.values():
            return threshold
        threshold = self._thresholds[needed] = SizeAtLeast(self, needed)
        return threshold


class RecycledKeepsThresholds(AckSet):
    """Forgets to drop its thresholds when the pool recycles it."""
    __slots__ = ()

    def reset(self, label="", key=None):
        thresholds = dict(self._thresholds)
        super().reset(label, key)
        self._thresholds.update(thresholds)


def with_ack_set(cls):
    return CURRENT._replace(ack_set=cls)


MUTANTS = {
    "signal at needed - 1": (with_ack_set(SignalsOneEarly), "crossing"),
    "Check-derived signals suppressed": (with_ack_set(ChecksSilenced),
                                        "quorum"),
    "one memo shared across k": (with_ack_set(OneMemoForAllK), "thresholds"),
    "recycled set keeps its thresholds": (
        with_ack_set(RecycledKeepsThresholds), "recycle"),
}


@each_mutant(MUTANTS)
def test_seeded_mutants_are_killed(mutant):
    impl, script = MUTANTS[mutant]
    assert_killed(partial(differential, SCRIPTS[script]), CURRENT, impl)
