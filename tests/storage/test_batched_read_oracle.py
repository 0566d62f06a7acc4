"""Differential oracle: a batched RQS read decides, per element, what the
element's unbatched read decides.

``StorageReader.read_batch`` used to resolve its elements in per-round
*cohorts*, and every cohort ran Figure 7's line 49 two-round write-back:
the BCD fast paths were skipped, so a fault-free batched read took three
rounds where its unbatched read took one.  That path lives on *only
here*, verbatim, as :class:`ReferenceCohortReader` (with the
composite conditions it waited on, :class:`ReferenceAllOf` and
:class:`ReferenceAnyOf`, which the simulator no longer has).  Now each
element gets the write-back plan :meth:`StorageReader._plan` gives the
unbatched read, and the elements of one plan write back as one group.

Hypothesis stages per-key server histories — writes complete at one
round or another, partial writes whose rounds reached a few servers —
plus crashes of up to ``t`` servers (a quorum stays correct) and
``Hold``s on the reader's links, and runs, each on a fresh identical
deployment, one ``read_batch(keys)``, the reference's, and one
unbatched ``read(key)`` per element.  Per element the batch must show
the unbatched read's value, timestamp, rounds and latency, and leave
its key's server histories as the unbatched read left them; against
the reference, the same value and timestamp in no more rounds.  A
batched regular read is held to its unbatched regular read the same
way, and moves no server history.  Seeded
mutants of the batch — BCD skipped for one element, a class-2 element
completed at the collect, a group's ``WriteBatch`` carrying another
group's x1 set — must each die on their named script.

With a Byzantine server in the deployment (``Case.liar``: silent,
fabricating, forgetful with its trigger inside the read, or
quorum-forgetting) each batched element is held to its unbatched twin
the same way, for the atomic and the regular reader.  A scripted liar
must change what some read shows, and two seeded server mutants — a
fabricator that answers ``ReadBatch`` from its real histories, a forger
that rolls back register 0 alone — must each die on their named script.
"""

from functools import partial
from typing import Any, NamedTuple, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenarios import (
    ByzantineRole, Crash, FaultPlan, Hold, Read, ScenarioSpec, get_protocol,
    resolve_rqs,
)
from repro.sim.conditions import Condition, Timer
from repro.sim.tasks import WaitUntil
from repro.storage.batching import ReadBatch, ReadBatchAck, WriteBatch
from repro.storage.history import History
from repro.storage.predicates import ReadState
from repro.storage.reader import StorageReader
from repro.storage.regular import RegularReader
from repro.storage.server import (
    FabricatingServer, ForgetfulServer, QuorumForgettingServer, SilentServer,
)
from tests.differential import (
    DIFFERENTIAL, agree, assert_killed, each_mutant,
)

RQS = resolve_rqs("example6")   # 8 servers, quorums missing <= 3 of them
SERVERS = tuple(RQS.servers)
READER = "reader1"
#: Every read here ends long before this, or never (a livelock shows as
#: an element left incomplete on every side).
HORIZON = 200.0


# -- the reference: per-round cohorts, always two write-back rounds ----------

class ReferenceComposite(Condition):
    """A condition over ``children``, signalled whenever one of its
    leaves may have changed: it joins each quorum check's responder set
    as one more check, and has the simulator signal it when a timer
    that has not fired yet comes due."""

    __slots__ = ("children",)

    #: Joins the children's labels into the composite's.
    _JOIN = ""

    def __init__(self, sim, *children: Condition, label: str = ""):
        super().__init__(label)
        self.children = children
        for child in children:
            self._signalled_by(sim, child)

    def _signalled_by(self, sim, child: Condition) -> None:
        if isinstance(child, ReferenceComposite):
            for grandchild in child.children:
                self._signalled_by(sim, grandchild)
        elif isinstance(child, Timer):
            if not child.holds():
                sim.call_at(child.time, self.signal)
        else:
            child._acks._checks.append(self)

    @property
    def label(self) -> str:
        return self._label or self._JOIN.join(
            child.label for child in self.children
        )


class ReferenceAllOf(ReferenceComposite):
    """Conjunction: holds when every child holds (e.g. timer AND quorum)."""

    __slots__ = ()
    _JOIN = " & "

    def holds(self) -> bool:
        return all(child.holds() for child in self.children)


class ReferenceAnyOf(ReferenceComposite):
    """Disjunction: holds when some child holds."""

    __slots__ = ()
    _JOIN = " | "

    def holds(self) -> bool:
        return any(child.holds() for child in self.children)


class ReferenceCohortReader(StorageReader):
    """The batched read before per-element BCD, verbatim."""

    def read_batch(self, keys):
        """Up to ``batch_size`` reads through one Figure 7 regular part:
        per-element :class:`ReadState`s fed positionally from shared
        :class:`ReadBatchAck` replies, one batch-level responder set per
        round.  **Completion is per element**: the elements whose
        candidate sets resolve in collect round ``r`` form a *cohort*
        that immediately launches its own batched line 49 two-round
        write-back — concurrently with further collect rounds for the
        still-unresolved elements — and they complete when that
        write-back quorum-acks.  A contended or lossy element therefore
        caps its *own* tail latency, never the whole batch's.  The BCD
        fast paths are per-element race detections and are skipped —
        always-safe, at worst two extra batch round-trips that unbatched
        BCD would have avoided."""
        records = self.trace.begin(
            "read", self.pid, self.sim.now, [(None, key) for key in keys]
        )
        target = self.selector.next_read() if self.selector else None
        targets = self._targets(target)
        self.read_no += 1
        number = self.read_no
        states = tuple(ReadState(self.rqs) for _ in keys)
        self._batch_states[number] = states

        unresolved = set(range(len(keys)))
        csels = [None] * len(keys)
        cohorts = []
        read_rnd = 0
        collect_cond = None
        while unresolved or cohorts:
            if unresolved and collect_cond is None:
                # -- regular part (lines 20-35): next batch-wide round.
                # Every round keeps carrying the full key tuple so the
                # positional on_message feed (and the servers' reply
                # shape) never changes; only the harvest below is
                # element-wise.
                read_rnd += 1
                acks = self._batch_acks(number, read_rnd)
                self.send_all(
                    targets, ReadBatch(number, read_rnd, tuple(keys))
                )
                quorum = acks.includes_quorum(self.rqs.contains_quorum)
                collect_cond = (
                    ReferenceAllOf(
                        self.sim,
                        self.sim.timer_at(self.sim.now + self.timeout), quorum,
                    )
                    if read_rnd == 1
                    else quorum
                )
            waits = [cohort["cond"] for cohort in cohorts]
            if collect_cond is not None:
                waits.append(collect_cond)
            yield WaitUntil(
                waits[0] if len(waits) == 1
                else ReferenceAnyOf(self.sim, *waits)
            )
            # -- advance the in-flight cohort write-backs --
            advancing = cohorts
            cohorts = []
            for cohort in advancing:
                if not cohort["cond"].holds():
                    cohorts.append(cohort)
                elif cohort["rnd"] == 1:
                    cohort["rnd"] = 2
                    cohort["cond"] = self._cohort_writeback(
                        cohort, 2, targets
                    )
                    cohorts.append(cohort)
                else:
                    # A cohort resolved in one collect round: one wave.
                    self._batches.close(cohort["no"], 1, 2)
                    wave = cohort["members"]
                    self.trace.complete(
                        [records[i] for i in wave], self.sim.now,
                        [csels[i].val for i in wave],
                        cohort["read_rnd"] + 2,
                    )
            # -- harvest the collect round, if it resolved --
            if collect_cond is None or not collect_cond.holds():
                continue
            collect_cond = None
            if read_rnd == 1:
                for state in states:
                    state.freeze_round1()
            members = []
            for i in sorted(unresolved):
                candidates = states[i].candidates()
                if candidates:
                    csels[i] = max(candidates, key=lambda p: p.ts)
                    records[i].ts = csels[i].ts
                    members.append(i)
            if not members:
                continue
            unresolved.difference_update(members)
            if not unresolved:
                # Regular part done for every element: straggler acks
                # can no longer matter, release the batch state (the
                # cohort write-backs track their own responder sets).
                self._batch_states.pop(number, None)
                for rnd in range(1, read_rnd + 1):
                    self._batch_acks.discard(number, rnd)
            # -- atomicity part for this cohort (line 49), launched now --
            cohort = {
                "no": self._batches.open(),
                "rnd": 1,
                "read_rnd": read_rnd,
                "members": tuple(members),
                "ops": tuple(
                    (csels[i].ts, csels[i].val, keys[i]) for i in members
                ),
            }
            cohort["cond"] = self._cohort_writeback(cohort, 1, targets)
            cohorts.append(cohort)
        return records

    def _cohort_writeback(self, cohort: dict, rnd: int, targets):
        """Send one round of a cohort's batched line 49 write-back and
        return the quorum condition its elements wait on."""
        wb_acks = self._batches.responders(cohort["no"], rnd)
        self.send_all(targets, WriteBatch(
            cohort["no"], rnd, "", cohort["ops"], frozenset()
        ))
        return wb_acks.includes_quorum(self.rqs.contains_quorum)


# -- staged cases --------------------------------------------------------------

class Write(NamedTuple):
    """One staged write of a key: the servers each of its rounds
    reached, in round order (a write that stopped early reached none
    in its later rounds).  Round 2 carries the class-2 quorums round 1
    reached, as Figure 5's writer sends its QC'2."""

    reached: Tuple[frozenset, ...]


class Liar(NamedTuple):
    """One Byzantine server: ``sid`` runs as ``kind(sid, **options)``."""

    sid: int
    kind: type
    options: Tuple[Tuple[str, Any], ...] = ()

    def role(self) -> ByzantineRole:
        return ByzantineRole(self.sid,
                             partial(self.kind, **dict(self.options)))


class Case(NamedTuple):
    keys: Tuple[str, ...]
    writes: Tuple[Tuple[str, Tuple[Write, ...]], ...]
    crashes: Tuple[Tuple[int, float], ...] = ()
    holds: Tuple[Hold, ...] = ()
    liar: Optional[Liar] = None


SPEC = ScenarioSpec(
    "rqs-storage", rqs="example6", readers=1, workload=(Read(0.0),),
    trace_level="full",
)


def deploy(case: Case, protocol: str = "rqs-storage"):
    """A fresh deployment with ``case``'s histories stored and its
    faults in place, nothing run yet."""
    spec = SPEC.with_(protocol=protocol, faults=FaultPlan(
        crashes=tuple(Crash(sid, at) for sid, at in case.crashes),
        asynchrony=case.holds,
        byzantine=(case.liar.role(),) if case.liar else (),
    ))
    adapter = get_protocol(protocol).build(spec)
    adapter.apply_faults(spec)
    for key, writes in case.writes:
        for ts, write in enumerate(writes, 1):
            qc2 = frozenset(RQS.responding_quorums(write.reached[0], cls=2))
            for rnd, reached in enumerate(write.reached, 1):
                sets = qc2 if rnd == 2 else frozenset()
                for sid in reached:
                    adapter.servers[sid].history_for(key).store(
                        ts, rnd, f"{key}{ts}", sets
                    )
    return adapter


def element(record, adapter, key):
    """What one read element showed, and how its key's servers ended."""
    done = record.complete
    return {
        "value": record.result if done else None,
        "ts": record.ts,
        "rounds": record.rounds if done else None,
        "latency": record.completed_at - record.invoked_at if done else None,
        "histories": tuple(
            adapter.servers[sid].history_for(key).snapshot()
            for sid in SERVERS
        ),
    }


def batched(case: Case, reader_class=StorageReader,
            protocol: str = "rqs-storage"):
    """``read_batch(case.keys)`` by a ``reader_class`` reader: per
    element, its :func:`element`."""
    adapter = deploy(case, protocol)
    reader = adapter.readers[0]
    reader.__class__ = reader_class
    adapter.sim.spawn(reader.read_batch(list(case.keys)))
    adapter.sim.run(until=HORIZON)
    return [
        element(record, adapter, key)
        for record, key in zip(adapter.trace.records, case.keys)
    ]


def unbatched(case: Case, protocol: str = "rqs-storage"):
    """One unbatched ``read(key)`` per element, each on its own fresh
    deployment."""
    out = []
    for key in case.keys:
        adapter = deploy(case, protocol)
        adapter.sim.spawn(adapter.readers[0].read(key))
        adapter.sim.run(until=HORIZON)
        out.append(element(adapter.trace.records[0], adapter, key))
    return out


def differential(case: Case, reader_class=StorageReader):
    """The batch agrees with the unbatched reads element by element."""
    alone = unbatched(case)
    agree(alone, batched(case, reader_class), range(len(case.keys)),
          lambda side, i: side[i])
    return alone


def against_the_reference(case: Case, alone):
    """Where the cohort path completes an element, the unbatched read
    returns the same value and timestamp in no more rounds (it can
    complete where the cohort path blocks: a write-back it skips may
    have no quorum to reach)."""
    for old, new in zip(batched(case, ReferenceCohortReader), alone):
        if old["rounds"] is not None:
            assert (old["value"], old["ts"]) == (new["value"], new["ts"])
            assert new["rounds"] <= old["rounds"]


# -- generated cases -------------------------------------------------------------

def _servers(missing):
    return frozenset(SERVERS) - frozenset(missing)


#: Who a round reached: everyone, or all but up to seven.
reached = st.lists(st.sampled_from(SERVERS), max_size=7).map(_servers)
writes = st.lists(reached, min_size=1, max_size=3).map(
    lambda rounds: Write(tuple(rounds))
)
holds = st.builds(
    lambda sid, inbound, after, span: Hold(
        src=(sid,) if inbound else (READER,),
        dst=(READER,) if inbound else (sid,),
        after=after, until=after + span,
    ),
    st.sampled_from(SERVERS), st.booleans(),
    st.sampled_from((0.0, 1.5, 2.5, 4.5)),
    st.sampled_from((float("inf"), 1.0, 3.0)),
)
cases = st.builds(
    Case,
    keys=st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple),
    writes=st.dictionaries(
        st.sampled_from("abc"),
        st.lists(writes, min_size=1, max_size=2).map(tuple),
    ).map(lambda per_key: tuple(sorted(per_key.items()))),
    crashes=st.integers(0, 3).flatmap(lambda n: st.lists(
        st.tuples(st.sampled_from(SERVERS), st.sampled_from((0.0, 1.0, 3.0))),
        min_size=n, max_size=n, unique_by=lambda crash: crash[0],
    )).map(tuple),
    holds=st.lists(holds, max_size=3).map(tuple),
    liar=st.none(),
)


@settings(DIFFERENTIAL, max_examples=120, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_each_element_takes_its_unbatched_decision(case):
    against_the_reference(case, differential(case))


# -- scripted cases (each also the script that kills a mutant) -------------------

#: Round 1 of each staged write reached only these servers (and server
#: 8 is down): x1 = BCD(csel, 2, 1) is {all but 6, all but 7} for key a
#: and {all but 1, all but 7} for key b (of the responders 1-7).
PARTIAL_A = Write((_servers((6, 7, 8)),))
PARTIAL_B = Write((_servers((1, 7, 8)),))
#: A write whose round 1 reached five servers and round 2 four: with 7
#: and 8 down no BCD_1 test holds, but BCD(csel, 2, 2) does.
CLASS2 = Write((_servers((6, 7, 8)), _servers((5, 6, 7, 8))))

SCRIPTS = {
    # Two keys fully written: each read returns in one round.
    "fault-free": Case(
        keys=("a", "b"),
        writes=(("a", (Write((_servers(()),)),)),
                ("b", (Write((_servers(()),)),))),
    ),
    # 7 and 8 down.  Key b was written at a class-2 quorum: one round-2
    # write-back; key a's partial write: a round-1 write-back carrying
    # x1 = {all but 7 and 8}, done within 2Δ.
    "class-2": Case(
        keys=("a", "b"),
        writes=(("a", (PARTIAL_A,)), ("b", (CLASS2,))),
        crashes=((7, 0.0), (8, 0.0)),
    ),
    # Two partial writes, two x1 sets: two write-back groups at the
    # same instant.
    "two-x1": Case(
        keys=("a", "b"),
        writes=(("a", (PARTIAL_A,)), ("b", (PARTIAL_B,))),
        crashes=((8, 0.0),),
    ),
    # The x1 write-back's fast window missed (server 3's acks held past
    # 2Δ with 8 down): round 2 follows, three rounds.
    "x1-missed": Case(
        keys=("a",),
        writes=(("a", (PARTIAL_A,)),),
        crashes=((8, 0.0),),
        holds=(Hold(src=(3,), dst=(READER,), after=2.5, until=8.0),),
    ),
    # Replies from 5-7 held past round 1: five responders, no class-2
    # quorum among them, so line 49 for b; a's newest pair is not yet
    # a candidate, so a collects a second round while b's write-back
    # group runs.
    "second-round": Case(
        keys=("a", "b"),
        writes=(
            ("a", (Write((_servers((2,)), _servers((1, 2, 4, 5, 7, 8)))),
                   Write((_servers((1, 2, 3, 4, 5, 7, 8)),
                          _servers((1, 2, 3, 4, 5, 7)))))),
            ("b", (Write((_servers(()),)),)),
        ),
        holds=(Hold(src=(5,), dst=(READER,), until=3.0),
               Hold(src=(6,), dst=(READER,), until=3.0),
               Hold(src=(7,), dst=(READER,), until=5.0)),
    ),
    # Three crashes: the Theorem 9 degraded class, line 49.
    "degraded": Case(
        keys=("b", "a", "b"),
        writes=(("a", (Write((_servers((2, 3, 4)),)),)),
                ("b", (Write((_servers((1,)),)),))),
        crashes=((2, 0.0), (3, 0.0), (4, 0.0)),
    ),
}


def test_scripted_cases_exercise_what_they_claim():
    rounds = {
        name: [e["rounds"] for e in differential(case)]
        for name, case in SCRIPTS.items()
    }
    assert rounds == {
        "fault-free": [1, 1],
        "class-2": [2, 2],
        "two-x1": [2, 2],
        "x1-missed": [3],
        "second-round": [4, 3],
        "degraded": [3, 3, 3],
    }
    for case in SCRIPTS.values():
        against_the_reference(case, unbatched(case))


def regular_differential(case: Case):
    """The regular reader's plan is always "done": per element, a batch
    shows its unbatched regular read's value, timestamp, rounds and
    latency; where the atomic read completes the regular read does, in
    no more rounds; and no server history moves."""
    alone = unbatched(case, "rqs-regular")
    agree(alone, batched(case, RegularReader, "rqs-regular"),
          range(len(case.keys)), lambda side, i: side[i])
    staged = deploy(case, "rqs-regular")
    for regular, atomic, key in zip(alone, unbatched(case), case.keys):
        if atomic["rounds"] is not None:
            assert regular["rounds"] <= atomic["rounds"]
        assert regular["histories"] == tuple(
            staged.servers[sid].history_for(key).snapshot()
            for sid in SERVERS
        )


@settings(DIFFERENTIAL, max_examples=120, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_each_regular_element_takes_its_unbatched_decision(case):
    regular_differential(case)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_a_batched_regular_read_takes_its_unbatched_decision(name):
    regular_differential(SCRIPTS[name])


# -- Byzantine servers -----------------------------------------------------------
#
# A Byzantine server answers a ``ReadBatch`` element with the reply it
# gives that key's ``RD`` (one ``StorageServer.reply`` seam), and its
# forgeries act on every register it holds: per element, a batch shows
# what its unbatched read shows with the same liar in place.

class LiedAboutNothing(AssertionError):
    """A Byzantine script read exactly what it reads with an honest
    server in the liar's place: its lie never reached a read."""


def lying_differential(case: Case):
    """Batch against unbatched with ``case.liar`` in place, for the
    atomic and the regular reader alike; returns the atomic reads."""
    alone = differential(case)
    agree(unbatched(case, "rqs-regular"),
          batched(case, RegularReader, "rqs-regular"),
          range(len(case.keys)), lambda side, i: side[i])
    return alone


def lies(case: Case):
    """:func:`lying_differential`, and the liar changed what some read
    showed — value, timestamp, rounds, latency or a history."""
    if lying_differential(case) == unbatched(case._replace(liar=None)):
        raise LiedAboutNothing(case.liar)


def _forged_sigma():
    sigma = History()
    sigma.store(9, 1, "forged", frozenset())
    return sigma.snapshot()


FORGERY = (("forged_ts", 999), ("forged_value", "EVIL"))
liars = st.one_of(
    st.sampled_from(SERVERS).map(lambda sid: Liar(sid, SilentServer)),
    st.sampled_from(SERVERS).map(
        lambda sid: Liar(sid, FabricatingServer, FORGERY)
    ),
    st.builds(
        lambda sid, at, state: Liar(sid, ForgetfulServer, (
            ("trigger_time", at), ("forged_state", state),
        )),
        st.sampled_from(SERVERS), st.sampled_from((0.5, 1.5, 2.5, 4.5)),
        st.sampled_from((None, _forged_sigma())),
    ),
    st.builds(
        lambda sid, at: Liar(sid, QuorumForgettingServer,
                             (("trigger_time", at),)),
        st.sampled_from(SERVERS), st.sampled_from((0.5, 1.5, 2.5, 4.5)),
    ),
)


@settings(DIFFERENTIAL, max_examples=120, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases, liars)
def test_a_liar_tells_each_element_what_it_tells_its_read(case, liar):
    lying_differential(case._replace(liar=liar))


#: A write whose rounds 1 and 2 both reached all but server 8: with 2
#: and 3 down, its QC'2 ids make BCD(csel, 2, 2) hold at the collect.
WRITTEN_AT_2 = Write((_servers((8,)), _servers((8,))))

#: Each liar on a script where its lie shows: the rounds (and, for the
#: fabricator, the values) the unbatched reads take with it in place.
LIARS = {
    # One round short of answers: class-2 takes line 49.
    "silent": (SCRIPTS["class-2"]._replace(liar=Liar(1, SilentServer)),
               [3, 3], ["a1", "b1"]),
    # Server 6, a2's only holder, shows its forged pair instead: a1.
    "fabricating": (
        SCRIPTS["second-round"]._replace(
            liar=Liar(6, FabricatingServer, FORGERY)
        ),
        [4, 3], ["a1", "b1"],
    ),
    # Server 1 forgets both registers before the reads reach it.
    "forgetful": (
        SCRIPTS["class-2"]._replace(
            liar=Liar(1, ForgetfulServer, (("trigger_time", 0.5),))
        ),
        [3, 3], ["a1", "b1"],
    ),
    # Server 1 forgets both registers' QC'2 ids: no BCD(csel, 2, 2).
    "quorum-forgetting": (
        Case(keys=("a", "b"),
             writes=(("a", (WRITTEN_AT_2,)), ("b", (WRITTEN_AT_2,))),
             crashes=((2, 0.0), (3, 0.0)),
             liar=Liar(1, QuorumForgettingServer, (("trigger_time", 0.5),))),
        [2, 2], ["a1", "b1"],
    ),
}


@pytest.mark.parametrize("name", sorted(LIARS))
def test_a_batch_reads_what_each_liar_tells_its_reads(name):
    case, rounds, values = LIARS[name]
    lies(case)
    alone = unbatched(case)
    assert [e["rounds"] for e in alone] == rounds
    assert [e["value"] for e in alone] == values


# -- seeded mutants ----------------------------------------------------------------

class SkipsBCDForOneElement(StorageReader):
    """The first element planned in a batch writes back in two rounds
    whatever the BCD tests say."""

    def read_batch(self, keys):
        self._skipped = False
        return super().read_batch(keys)

    def _plan(self, state, csel, read_rnd):
        if not self._skipped:
            self._skipped = True
            return (1, frozenset())
        return super()._plan(state, csel, read_rnd)


class CompletesClass2AtCollect(StorageReader):
    """An element that needs a class-2 write-back completes at the
    collect instead."""

    def _plan(self, state, csel, read_rnd):
        plan = super()._plan(state, csel, read_rnd)
        if plan is not None and (plan[0] == 2 or plan[1]):
            return None
        return plan


class SendsAnotherGroupsX1(StorageReader):
    """A write-back group's round-1 ``WriteBatch`` carries the x1 set of
    the group launched before it."""

    def _write_back_group(self, group, plan, members, read_rnd, targets,
                          done):
        previous = getattr(self, "_previous_x1", None)
        self._previous_x1 = plan[1]
        wrong = previous or plan[1]
        ops = tuple((csel.ts, csel.val, key) for _, csel, key in members)

        def send_round(rnd, sets):
            sets = wrong if sets else sets
            self.send_all(targets, WriteBatch(group, rnd, "", ops, sets))
            return self._batches.responders(group, rnd)

        rounds = yield from self._atomicity_part(plan, send_round)
        self._batches.close(group, 1, 2)
        self._complete(members, read_rnd + rounds)
        done.set()


MUTANTS = {
    SkipsBCDForOneElement: "fault-free",
    CompletesClass2AtCollect: "class-2",
    SendsAnotherGroupsX1: "two-x1",
}


@each_mutant(MUTANTS)
def test_seeded_mutants_are_caught(mutant):
    assert_killed(
        lambda reader_class: differential(SCRIPTS[MUTANTS[mutant]],
                                          reader_class),
        StorageReader, mutant,
    )


class AnswersBatchesHonestly(FabricatingServer):
    """A fabricator whose ``ReadBatch`` replies are its real histories —
    the batched handler that bypassed the lie."""

    def handle_read_batch(self, client, rb):
        self.send(client, ReadBatchAck(rb.read_no, rb.rnd, tuple([
            self.history_for(key).snapshot() for key in rb.keys
        ])))


class ForgetsRegisterZeroOnly(ForgetfulServer):
    """A forger that rolls back register 0 alone: the harness's keys are
    strings, so it lies about nothing."""

    def _trigger(self):
        self._forge(self.history_for(0))


LIAR_MUTANTS = {
    AnswersBatchesHonestly: "fabricating",
    ForgetsRegisterZeroOnly: "forgetful",
}


@each_mutant(LIAR_MUTANTS)
def test_seeded_liar_mutants_are_caught(mutant):
    case = LIARS[LIAR_MUTANTS[mutant]][0]
    assert_killed(
        lambda kind: lies(case._replace(liar=case.liar._replace(kind=kind))),
        case.liar.kind, mutant, dies_of=LiedAboutNothing,
    )
