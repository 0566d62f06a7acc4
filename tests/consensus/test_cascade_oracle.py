"""Differential oracle for the indexed update cascade and decide rules.

The production acceptor decides Figure 15 lines 34-38 and 51-53 with
sender masks over ``rqs.index``.  The per-quorum formulation it replaced
— ``for quorum in rqs.quorums: if quorum <= senders: trigger(...)`` and
the set-based decide rules — lives on *only here*, as the reference
:class:`ReferenceAcceptor` / :class:`ReferenceTracker`.  Both are fed
the same deliveries (duplicate and non-member senders, stale and future
views, value changes inside a step, both steps interleaved) and must
agree after every single one on ``update`` / ``update_view`` /
``update_q`` / ``old``, on the decided value and on the exact sequence
of messages sent.  Seeded bugs in the indexed cascade must each be
caught by the same comparison — an oracle never seen to fail proves
little.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.consensus.acceptor import Acceptor
from repro.consensus.decisions import DecisionTracker
from repro.consensus.messages import Decision, Prepare, Update
from repro.core.constructions import example7_rqs, figure3_rqs, threshold_rqs
from repro.crypto.signatures import SignatureService
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant

SYSTEMS = (
    threshold_rqs(8, 3, 1, 1, 2),       # example6: 93 quorums
    example7_rqs(),
    figure3_rqs(),
    threshold_rqs(5, 1, 1, 0, 1),
    threshold_rqs(6, 2, 0, 1, 2),
)
PROPOSERS = ("p1", "p2")
LEARNERS = ("l1",)
INTRUDER = "intruder"


# -- the reference: the formulation before the index, verbatim ---------------

class ReferenceTracker:
    """The decide rules over plain sender sets."""

    def __init__(self, rqs):
        self.rqs = rqs
        self._senders = {}
        self._senders2 = {}

    def record(self, sender, update):
        key = (update.step, update.value, update.view)
        senders = self._senders.setdefault(key, set())
        senders.add(sender)
        if update.step == 2 and update.quorum is not None:
            self._senders2.setdefault(
                (update.value, update.view, update.quorum), set()
            ).add(sender)
        if update.step == 1:
            if any(q <= senders for q in self.rqs.qc1):
                return update.value
        elif update.step == 2 and update.quorum is not None:
            exact = self._senders2[(update.value, update.view, update.quorum)]
            if update.quorum in set(self.rqs.qc2) and update.quorum <= exact:
                return update.value
        elif update.step == 3:
            if any(q <= senders for q in self.rqs.quorums):
                return update.value
        return None


class _AnyProof:
    """Later-view prepares are accepted from the view's leader without a
    ``vProof`` (the consult phase is not what is compared here)."""

    def _prepare_proof_ok(self, prepare):
        return True


class ReferenceAcceptor(_AnyProof, Acceptor):
    """Lines 34-38 once per fitting quorum, by walking ``rqs.quorums``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._decisions = ReferenceTracker(self.rqs)
        self._ref_update_senders = {}
        self._ref_decision_senders = {}

    def _handle_update(self, src, update):
        if src not in self.rqs.ground_set:
            return
        decided = self._decisions.record(src, update)
        if decided is not None:
            self._decide(decided)
        if update.step not in (1, 2):
            return
        senders = self._ref_update_senders.setdefault(
            (update.step, update.value, update.view), set()
        )
        senders.add(src)
        if (
            update.value != self.prep
            or update.view != self.view
            or self.view not in self.prep_view
        ):
            return
        step, value = update.step, update.value
        for quorum in self.rqs.quorums:
            if not quorum <= senders:
                continue
            self._trigger_update(step, value, quorum)

    def _trigger_update(self, step, value, quorum):
        if self.update[step] == value:
            self.update_view[step].add(self.view)
        else:
            self.update[step] = value
            self.update_view[step] = {self.view}
            for view_key in [k for k in self.update_q if k[0] == step]:
                del self.update_q[view_key]
            for view_key in [k for k in self.update_proof if k[0] == step]:
                del self.update_proof[view_key]
        stored = self.update_q.setdefault((step, self.view), set())
        fire = (
            (step == 1 and quorum not in stored)
            or (step == 2 and not stored)
        )
        if fire:
            stored.add(quorum)
            self._broadcast_update(
                Update(step + 1, value, self.view, quorum)
            )

    def _record_decision(self, src, value):
        senders = self._ref_decision_senders.setdefault(value, set())
        senders.add(src)
        if any(q <= senders for q in self.rqs.quorums):
            self._stop_suspect_timer()


class IndexedAcceptor(_AnyProof, Acceptor):
    """The production acceptor (only the proof check is stubbed)."""


# -- the harness ---------------------------------------------------------------

class World:
    """One acceptor under test; every other process is a silent sink, so
    ``network.log`` is exactly what the acceptor sent, in order."""

    def __init__(self, rqs, acceptor_cls):
        self.network = Network(Simulator(), delta=1.0)
        self.me = rqs.servers[0]
        self.acceptor = acceptor_cls(
            self.me, rqs, PROPOSERS, LEARNERS, SignatureService()
        ).bind(self.network)
        for pid in rqs.servers[1:] + PROPOSERS + LEARNERS + (INTRUDER,):
            Process(pid).bind(self.network)

    def deliver(self, src, payload):
        self.acceptor.on_message(src, payload)

    def apply(self, op):
        kind = op[0]
        acceptor = self.acceptor
        if kind == "deliver":
            self.deliver(op[1], op[2])
        elif kind == "view":                      # as if by new_view
            acceptor.view = max(acceptor.view, op[1])
        elif kind == "reprepare":                 # a poked value change
            acceptor.prep = op[1]
            acceptor.prep_view = {acceptor.view}
        else:  # pragma: no cover
            raise AssertionError(op)

    def state(self):
        a = self.acceptor
        return {
            "view": a.view,
            "prep": (a.prep, set(a.prep_view)),
            "update": dict(a.update),
            "update_view": {s: set(v) for s, v in a.update_view.items()},
            "update_q": {k: set(v) for k, v in a.update_q.items()},
            "old": set(a.old),
            "decided": a.decided,
            "timer_stopped": a._timer_stopped,
        }

    def sent(self):
        return [(m.dst, m.payload) for m in self.network.log]


def observed(world):
    # update_q also picks SignReq targets and the AckData tuple order by
    # iteration: same members inserted in the same order.
    order = {key: list(q) for key, q in world.acceptor.update_q.items()}
    return {**world.state(), "sent": world.sent(), "update_q order": order}


def differential(rqs, ops, acceptor_cls=IndexedAcceptor):
    """Feed ``ops`` to the reference and to ``acceptor_cls``; they must
    agree after every op."""
    return agree(World(rqs, ReferenceAcceptor), World(rqs, acceptor_cls),
                 ops, World.apply, observed)


def record(tracker, delivery):
    return tracker.record(*delivery)


# -- generated deliveries ---------------------------------------------------------

VALUES = ("A", "B")
VIEWS = (0, 1, 2)


@st.composite
def cases(draw):
    """A system and a few *phases*.  A phase picks a statement
    ``(value, view)`` and shuffles together: the view advance and the
    prepare that validate it (so senders may arrive early, or for a
    future view), sometimes a poked value change, an update1 and an
    update2 round from the members of two quorums, and noise —
    duplicates, non-members, other statements, garbage steps,
    decisions.  Later phases revisit values and views (stale views,
    A -> B -> A)."""
    rqs = draw(st.sampled_from(SYSTEMS))
    anyone = st.sampled_from(rqs.servers + (INTRUDER, "p1"))
    payload_quorums = st.one_of(
        st.none(),
        st.sampled_from(rqs.quorums),
        st.just(frozenset(rqs.servers[:2])),      # not a quorum
    )
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        value = draw(st.sampled_from(VALUES))
        view = draw(st.sampled_from(VIEWS))
        phase = [("view", view), prepare(value, view)]
        if draw(st.booleans()):
            phase.append(("reprepare", draw(st.sampled_from(VALUES))))
        q2 = draw(st.sampled_from(rqs.quorums))
        payload = draw(st.one_of(st.just(q2), payload_quorums))
        phase += [upd(s, 1, value, view)
                  for s in draw(st.sampled_from(rqs.quorums))]
        phase += [upd(s, 2, value, view, payload) for s in q2]
        phase += draw(st.lists(st.one_of(
            st.builds(upd, anyone, st.sampled_from((1, 2, 3, 4)),
                      st.sampled_from(VALUES), st.sampled_from(VIEWS),
                      payload_quorums),
            st.builds(upd, anyone, st.sampled_from((1, 2)),
                      st.just(value), st.just(view), payload_quorums),
            st.tuples(st.just("deliver"), anyone,
                      st.builds(Decision, st.sampled_from(VALUES))),
            st.builds(prepare, st.sampled_from(VALUES),
                      st.sampled_from(VIEWS)),
        ), max_size=8))
        ops += draw(st.permutations(phase))
    return rqs, ops


def upd(src, step, value, view=0, quorum=None):
    return ("deliver", src, Update(step, value, view, quorum))


def prepare(value, view=0):
    return ("deliver", PROPOSERS[view % 2], Prepare(value, view, None, None))


@settings(DIFFERENTIAL, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_the_acceptor_and_the_tracker_match_their_references(case):
    """The drawn deliveries, to the per-quorum acceptor and, their
    updates alone, to the set-based decide rules."""
    rqs, ops = case
    differential(rqs, ops)
    updates = [op[1:] for op in ops
               if op[0] == "deliver" and isinstance(op[2], Update)]
    agree(ReferenceTracker(rqs), DecisionTracker(rqs), updates, record)


# -- scripted flows ---------------------------------------------------------------

EXAMPLE6 = SYSTEMS[0]
Q5 = EXAMPLE6.quorums[0]                  # {1,2,3,4,5}: class 3
assert len(Q5) == 5 and EXAMPLE6.quorum_class(Q5) == 3


def quorum_sends(step, value, view=0, members=Q5, quorum=None):
    return [upd(s, step, value, view, quorum) for s in sorted(members)]


#: update1 from 1..5, then 6, 7, 8 one by one: 1 + 5 + 15 + 35 quorums
#: newly fit; then a whole update2 round (update3 fires once).
GROWING = (
    [prepare("A")]
    + quorum_sends(1, "A", members=range(1, 9))
    + quorum_sends(2, "A", members=range(1, 9), quorum=Q5)
    + quorum_sends(2, "A", members=range(1, 9), quorum=EXAMPLE6.quorums[1])
)

#: the update statements arrive before the prepare that validates them,
#: so the first guarded scan sees several new senders at once.
EARLY_SENDERS = (
    quorum_sends(1, "A", members=range(2, 8))
    + [prepare("A"), upd(1, 1, "A"), upd(8, 1, "A")]
    + quorum_sends(2, "A", members=range(3, 9), quorum=Q5)
)

#: A -> B -> A inside one view (a poked value change): every change of
#: update[1] forgets the stored quorums, which must fire again.
VALUE_FLIPS = (
    [prepare("A")] + quorum_sends(1, "A") + quorum_sends(2, "A", quorum=Q5)
    + [("reprepare", "B")] + quorum_sends(1, "B") + quorum_sends(2, "B")
    + [("reprepare", "A"), upd(1, 1, "A"), upd(6, 1, "A"), upd(2, 2, "A")]
)

#: the same value across a view change, with stale and future views.
VIEW_CHANGE = (
    [prepare("A")] + quorum_sends(1, "A") + quorum_sends(1, "A", view=1)
    + [("view", 1), upd(6, 1, "A", view=0), prepare("A", view=1),
       upd(6, 1, "A", view=1), upd(INTRUDER, 1, "A", view=1)]
    + quorum_sends(2, "A", view=1, quorum=Q5)
    + quorum_sends(3, "A", view=1, quorum=Q5)
)

SCRIPTS = {
    "growing": GROWING,
    "early-senders": EARLY_SENDERS,
    "value-flips": VALUE_FLIPS,
    "view-change": VIEW_CHANGE,
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scripted_flows_agree(name):
    reference, candidate = differential(EXAMPLE6, SCRIPTS[name])
    # The scripts are not vacuous: the cascade ran in each of them.
    assert reference.acceptor.update[2] is not None
    assert any(
        isinstance(payload, Update) and payload.step == 3
        for _, payload in candidate.sent()
    )


def test_growing_sender_set_fires_each_quorum_once_in_quorum_order():
    _, world = differential(EXAMPLE6, GROWING)
    fired = [
        payload.quorum for dst, payload in world.sent()
        if dst == "l1" and isinstance(payload, Update) and payload.step == 2
    ]
    # All 93 quorums fit 1..8; each fired exactly once ...
    assert sorted(fired, key=EXAMPLE6.quorums.index) == list(EXAMPLE6.quorums)
    # ... and within one delivery in rqs.quorums order.
    newly = [q for q in EXAMPLE6.quorums if 8 in q]
    assert fired[-len(newly):] == newly


# -- seeded mutants of the indexed cascade -------------------------------------------

class _IndexProxy:
    """The real index with one method replaced."""

    def __init__(self, index, newly_responding):
        self._index = index
        self.newly_responding = newly_responding

    def __getattr__(self, name):
        return getattr(self._index, name)


class NoSaturationReset(IndexedAcceptor):
    """A value change forgets the stored quorums but not the scan marks."""

    def _forget_step(self, step):
        for table in (self.update_q, self.update_proof):
            for key in [k for k in table if k[0] == step]:
                del table[key]


class Step2FiresTwice(IndexedAcceptor):
    """update3 is broadcast without being recorded as sent."""

    def _fire(self, step, value, quorum, stored):
        if step == 3:
            self._broadcast_update(Update(step, value, self.view, quorum))
        else:
            super()._fire(step, value, quorum, stored)


class WrongBitTest(IndexedAcceptor):
    """"Newly fitting" = inside the new senders, not meeting them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        masks = self.rqs.index.masks[3]
        self._index = _IndexProxy(
            self.rqs.index,
            lambda mask, new: tuple(q for q in masks if q & new == q),
        )


class WrongFiringOrder(IndexedAcceptor):
    """The fitting quorums fire last-first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        index = self.rqs.index
        self._index = _IndexProxy(
            index,
            lambda mask, new: index.newly_responding(mask, new)[::-1],
        )


class ScanMarkTooEarly(IndexedAcceptor):
    """Senders count as scanned when they arrive, guarded or not."""

    def _handle_update(self, src, update):
        key = (update.step, update.value, update.view)
        if update.value != self.prep:
            self._scanned[key] = self._scanned.get(key, 0) | (
                self.rqs.index.bit.get(src, 0)
            )
        super()._handle_update(src, update)


MUTANTS = {
    NoSaturationReset: "value-flips",
    Step2FiresTwice: "growing",
    WrongBitTest: "growing",
    WrongFiringOrder: "growing",
    ScanMarkTooEarly: "early-senders",
}


@each_mutant(MUTANTS)
def test_seeded_mutants_are_killed(mutant):
    assert_killed(partial(differential, EXAMPLE6, SCRIPTS[MUTANTS[mutant]]),
                  IndexedAcceptor, mutant)


class ForgetfulTracker(DecisionTracker):
    """Forgets that a rule held: only a quorum through the newest
    sender counts."""

    def record(self, sender, update):
        self._decided.clear()
        return super().record(sender, update)


def test_seeded_tracker_mutant_is_killed():
    rqs = figure3_rqs()          # four sparse quorums, one class-1
    q1 = rqs.qc1[0]
    outsider = next(s for s in rqs.servers if s not in q1)
    assert not any(q <= q1 | {outsider} and outsider in q for q in rqs.qc1)
    feed = [(s, Update(1, "v", 0, None)) for s in sorted(q1) + [outsider]]
    reference = ReferenceTracker(rqs)
    assert [record(reference, d) for d in feed][-2:] == ["v", "v"]
    assert_killed(
        lambda tracker: agree(ReferenceTracker(rqs), tracker(rqs), feed,
                              record),
        DecisionTracker, ForgetfulTracker,
    )


class SkipsClassTwo(DecisionTracker):
    """The exact-match rule consulted for class-1 payload quorums only:
    a class-2 one is passed over like a class-3 one."""

    def record(self, sender, update):
        decided = super().record(sender, update)
        if update.step == 2 and self._index.class_of.get(update.quorum) == 2:
            return None
        return decided


def _the_draw(tracker_cls):
    """The drawn deliveries' updates, to the set-based decide rules and
    to ``tracker_cls``."""

    @settings(DIFFERENTIAL, max_examples=100, derandomize=True,
              database=None, phases=(Phase.generate,),
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def feed(case):
        rqs, ops = case
        updates = [op[1:] for op in ops
                   if op[0] == "deliver" and isinstance(op[2], Update)]
        agree(ReferenceTracker(rqs), tracker_cls(rqs), updates, record)

    feed()


def test_the_draw_kills_a_tracker_that_skips_class_two_quorums():
    assert_killed(_the_draw, DecisionTracker, SkipsClassTwo)
