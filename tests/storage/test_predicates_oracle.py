"""Differential oracle for the indexed Figure 7 predicates.

:class:`NaiveReadState` is Figure 7 lines 1-9 written server by server:
every predicate walks the quorum families and probes each server's
snapshot, with no index and no memo.  :class:`ReadState` answers the
same questions from per-candidate holder masks over the system's
``QuorumIndex``; the tests below require the two to agree on generated
states — random per-server histories, servers that never answered,
forged quorum-id sets, Byzantine snapshot overwrites, timestamps above
``highest_ts`` — and after every way a memoised answer can go stale.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constructions import threshold_rqs
from repro.scenarios import resolve_rqs
from repro.sim.network import Message
from repro.storage.batching import ReadBatchAck
from repro.storage.history import (
    BOTTOM,
    EMPTY_VIEW,
    INITIAL_PAIR,
    Entry,
    History,
    HistoryView,
    Pair,
)
from repro.storage.predicates import ReadState
from repro.storage.reader import StorageReader


class NaiveReadState:
    """The per-server formulation of the reader predicates."""

    def __init__(self, rqs):
        self.rqs = rqs
        self.view = {}
        self.acked_by_round = {}
        self.qc2_responded = ()
        self.highest_ts = 0

    def record_ack(self, server, rnd, history):
        # Figure 7 collects the snapshots of servers; nobody else's.
        if server not in self.rqs.ground_set:
            return
        self.view[server] = history
        self.acked_by_round.setdefault(rnd, set()).add(server)

    def responded_quorums(self):
        got = set(self.view)
        return tuple(q for q in self.rqs.quorums if q <= got)

    def round_quorum(self, rnd):
        acked = self.acked_by_round.get(rnd, set())
        return any(q <= acked for q in self.rqs.quorums)

    def freeze_round1(self):
        self.highest_ts = max(
            (view.max_timestamp() for view in self.view.values()), default=0
        )
        round1 = self.acked_by_round.get(1, set())
        self.qc2_responded = tuple(
            q2 for q2 in self.rqs.qc2 if q2 <= round1
        )

    def entry(self, server, ts, rnd):
        return self.view.get(server, EMPTY_VIEW).get(ts, rnd)

    def read_pred(self, c, server):
        return (
            self.entry(server, c.ts, 1).pair == c
            or self.entry(server, c.ts, 2).pair == c
        )

    def observed_pairs(self):
        seen = set()
        for view in self.view.values():
            seen.update(view.pairs())
        return sorted(seen, key=lambda p: p.ts)

    def valid1(self, c, quorum):
        holders = {s for s in quorum if self.entry(s, c.ts, 1).pair == c}
        return self.rqs.is_basic(holders) if holders else False

    def valid2(self, c, quorum):
        return any(self.entry(s, c.ts, 2).pair == c for s in quorum)

    def valid3(self, c, quorum):
        for q2 in self.rqs.qc2:
            base = q2 & quorum
            conforming = {
                s
                for s in base
                if self.entry(s, c.ts, 1).pair == c
                and q2 in self.entry(s, c.ts, 1).sets
            }
            b = frozenset(base - conforming)
            if not self.rqs.adversary.contains(b):
                continue
            if self.rqs.p3b(q2, quorum, b):
                return True
        return False

    def invalid(self, c):
        if c.ts > self.highest_ts:
            return True
        for quorum in self.responded_quorums():
            if not (
                self.valid1(c, quorum)
                or self.valid2(c, quorum)
                or self.valid3(c, quorum)
            ):
                return True
        return False

    def safe(self, c):
        readers = {s for s in self.view if self.read_pred(c, s)}
        return bool(readers) and self.rqs.is_basic(readers)

    def high_cand(self, c):
        for candidate in self.observed_pairs():
            if candidate.ts > c.ts and not self.invalid(candidate):
                return False
        return True

    def candidates(self):
        return [
            c
            for c in self.observed_pairs()
            if self.safe(c) and self.high_cand(c)
        ]

    def bcd1(self, c, big_r):
        for q1 in self.rqs.qc1:
            for qr in self.rqs.class_quorums(big_r):
                intersection = q1 & qr
                if not intersection:
                    continue
                ok = True
                for s in intersection:
                    entry = self.entry(s, c.ts, big_r)
                    if entry.pair != c:
                        ok = False
                        break
                    if big_r == 2 and qr not in entry.sets:
                        ok = False
                        break
                if ok:
                    return True
        return False

    def bcd2(self, c, big_r):
        result = []
        for q2 in self.qc2_responded:
            for qr in self.rqs.class_quorums(big_r):
                intersection = qr & q2
                if not intersection:
                    continue
                if all(
                    self.entry(s, c.ts, big_r).pair == c
                    for s in intersection
                ):
                    result.append(q2)
                    break
        return tuple(result)


SYSTEMS = {
    name: resolve_rqs(name)
    for name in ("example6", "example7", "figure3", "section12", "grid-hetero")
}

#: Pairs no generated snapshot needs to contain to be asked about.
EXTRA_PROBES = (INITIAL_PAIR, Pair(1, "a"), Pair(2, "b"), Pair(9, "z"))


def assert_same_answers(state, naive):
    """Every predicate of Figure 7, on every pair worth asking about."""
    rqs = naive.rqs
    assert state.observed_pairs() == naive.observed_pairs()
    assert state.responded_quorums() == naive.responded_quorums()
    for rnd in (1, 2):
        assert state.round_quorum(rnd) == naive.round_quorum(rnd)
    # Every quorum of a small system; a fixed spread of a large one
    # (``invalid`` still walks all the responded ones).
    step = max(1, len(rqs.quorums) // 12)
    quorums = rqs.quorums[::step]
    probes = list(dict.fromkeys(naive.observed_pairs() + list(EXTRA_PROBES)))
    for c in probes:
        assert state.safe(c) == naive.safe(c), c
        assert state.invalid(c) == naive.invalid(c), c
        assert state.high_cand(c) == naive.high_cand(c), c
        for server in rqs.ground_set:
            assert state.read_pred(c, server) == naive.read_pred(c, server)
        for big_r in (1, 2, 3):
            assert state.bcd1(c, big_r) == naive.bcd1(c, big_r), (c, big_r)
            assert state.bcd2(c, big_r) == naive.bcd2(c, big_r), (c, big_r)
        for quorum in quorums:
            assert state.valid1(c, quorum) == naive.valid1(c, quorum)
            assert state.valid2(c, quorum) == naive.valid2(c, quorum)
            assert state.valid3(c, quorum) == naive.valid3(c, quorum)
    assert state.candidates() == naive.candidates()


def both(rqs):
    return ReadState(rqs), NaiveReadState(rqs)


# -- generated states --------------------------------------------------------------

CELLS = [(ts, rnd) for ts in (0, 1, 2) for rnd in (1, 2, 3)]


def id_pool(rqs):
    """Quorum ids a slot may list: class-2 quorums (the only ids the
    predicates honour), a quorum that is class 3 only, and a forgery
    that is no quorum at all."""
    class2 = list(rqs.qc2[:: max(1, len(rqs.qc2) // 4)])
    class3_only = [q for q in rqs.quorums if q not in set(rqs.qc2)][:1]
    forged = frozenset(sorted(rqs.ground_set, key=repr)[:2])
    return class2 + class3_only + [forged]


@st.composite
def snapshots(draw, ids):
    """One server's history cells.  A cell's pair usually carries the
    cell's own timestamp; a Byzantine server may file anything."""
    cells = {}
    for ts, rnd in draw(st.sets(st.sampled_from(CELLS), max_size=6)):
        value = draw(st.sampled_from(["a", "b"] if ts else [BOTTOM, "a"]))
        pair_ts = draw(st.sampled_from([ts] * 7 + [7]))
        sets = draw(st.frozensets(st.sampled_from(ids), max_size=3))
        cells[(ts, rnd)] = Entry(Pair(pair_ts, value), sets)
    return cells


@st.composite
def ack_sequences(draw, rqs):
    """A sequence of ``(server, rnd, snapshot)`` acks.

    Most servers share one *common* history (correct servers that
    applied the same writes), some lag behind it, some forge their own,
    some never answer; a few extra acks overwrite an earlier snapshot.
    """
    servers = sorted(rqs.ground_set, key=repr)
    ids = id_pool(rqs)
    common = draw(snapshots(ids))
    kinds = st.sampled_from(
        ["common"] * 5 + ["stale", "forged", "empty", "absent"]
    )

    def ack(server, kind):
        if kind == "common":
            cells = dict(common)
        elif kind == "stale":
            kept = draw(st.sets(st.sampled_from(sorted(common)))
                        if common else st.just(set()))
            cells = {cell: common[cell] for cell in kept}
        elif kind == "forged":
            cells = draw(snapshots(ids))
        else:
            cells = {}
        rnd = draw(st.sampled_from([1, 1, 1, 2]))
        return (server, rnd, HistoryView(cells))

    acks = [
        ack(server, kind)
        for server, kind in zip(servers, draw(st.lists(
            kinds, min_size=len(servers), max_size=len(servers)
        )))
        if kind != "absent"
    ]
    for _ in range(draw(st.integers(0, 2))):
        acks.append(ack(
            draw(st.sampled_from(servers)),
            draw(st.sampled_from(["stale", "forged", "empty"])),
        ))
    return acks


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_indexed_predicates_match_per_server_oracle(name, data):
    rqs = SYSTEMS[name]
    acks = data.draw(ack_sequences(rqs))
    # Ask everything once part-way through, so the second comparison
    # meets whatever the first one memoised.
    checkpoint = data.draw(st.integers(0, len(acks)))
    state, naive = both(rqs)
    for i, ack in enumerate(acks):
        if i == checkpoint:
            assert_same_answers(state, naive)
        state.record_ack(*ack)
        naive.record_ack(*ack)
    if data.draw(st.booleans()):
        state.freeze_round1()
        naive.freeze_round1()
        assert state.highest_ts == naive.highest_ts
        assert state.qc2_responded == naive.qc2_responded
    ceiling = data.draw(st.none() | st.integers(0, 2))
    if ceiling is not None:
        # Candidates above the ceiling must turn invalid on both sides.
        state.highest_ts = naive.highest_ts = ceiling
    assert_same_answers(state, naive)


def test_oracle_is_not_vacuous():
    """A state where the interesting predicates are all *true* (so the
    differential test cannot pass by both sides answering False)."""
    rqs = SYSTEMS["example6"]
    state, naive = both(rqs)
    c = Pair(1, "a")
    qr = rqs.qc2[0]
    history = History()
    history.store(1, 1, "a", frozenset({qr}))
    history.store(1, 2, "a", frozenset({qr}))
    for server in rqs.ground_set:
        state.record_ack(server, 1, history.snapshot())
        naive.record_ack(server, 1, history.snapshot())
    state.freeze_round1()
    naive.freeze_round1()
    assert naive.safe(c) and not naive.invalid(c) and naive.high_cand(c)
    assert naive.valid1(c, qr) and naive.valid2(c, qr) and naive.valid3(c, qr)
    assert naive.bcd1(c, 1) and naive.bcd1(c, 2) and naive.bcd2(c, 1)
    assert naive.candidates() == [c]
    assert_same_answers(state, naive)


# -- absent servers ---------------------------------------------------------------


def test_non_responders_hold_the_initial_pair():
    """A server that never answered reports ``INITIAL_ENTRY``: inside a
    ``BCD`` intersection it counts as holding ``⟨0, ⊥⟩`` — but it
    confirms nothing, so it never makes ``⟨0, ⊥⟩`` safe."""
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    state, naive = both(rqs)
    assert naive.bcd1(INITIAL_PAIR, 1) and state.bcd1(INITIAL_PAIR, 1)
    assert not naive.safe(INITIAL_PAIR) and not state.safe(INITIAL_PAIR)
    assert state.holders(INITIAL_PAIR, 1) == rqs.index.full
    ack = (1, 1, History().snapshot())
    state.record_ack(*ack)
    naive.record_ack(*ack)
    assert_same_answers(state, naive)
    # Server 2 answers with a different timestamp-0 cell: it alone
    # stops holding ⟨0, ⊥⟩, and every Q1 ∩ Q1 (= S) now misses it.
    ack = (2, 1, HistoryView({(0, 1): Entry(Pair(0, "a"), frozenset())}))
    state.record_ack(*ack)
    naive.record_ack(*ack)
    assert not naive.bcd1(INITIAL_PAIR, 1) and not state.bcd1(INITIAL_PAIR, 1)
    assert_same_answers(state, naive)


def test_acks_from_outside_the_ground_set_are_dropped():
    """Only a server's snapshot counts: an ack from any other process
    enters no view, offers no candidate, cannot raise ``highest_ts``
    and confirms nothing — alone or next to genuine acks."""
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    state, naive = both(rqs)
    forged = History()
    forged.store(7, 1, "forged", frozenset(rqs.qc2[:1]))
    forged.store(7, 2, "forged", frozenset(rqs.qc2[:1]))
    intruders = ("reader-9", 42)

    def intrude():
        for intruder in intruders:
            state.record_ack(intruder, 1, forged.snapshot())
            naive.record_ack(intruder, 1, forged.snapshot())

    intrude()
    assert state.view == {} and state.observed_pairs() == []
    assert not state.round_quorum(1)
    assert_same_answers(state, naive)
    for server in (1, 2, 3, 4):
        ack = (server, 1, snapshot_with(1, 1, "a"))
        state.record_ack(*ack)
        naive.record_ack(*ack)
    intrude()
    state.freeze_round1()
    naive.freeze_round1()
    assert state.highest_ts == naive.highest_ts == 1
    assert sorted(state.view) == [1, 2, 3, 4]
    assert state.invalid(Pair(7, "forged"))
    assert not state.safe(Pair(7, "forged"))
    for intruder in intruders:
        for c in (Pair(7, "forged"), Pair(1, "a")):
            assert not state.read_pred(c, intruder)
            assert not naive.read_pred(c, intruder)
    assert state.candidates() == naive.candidates() == [Pair(1, "a")]
    assert_same_answers(state, naive)


# -- stale-index tests -------------------------------------------------------------


def snapshot_with(ts, rnd, value, ids=frozenset()):
    history = History()
    history.store(ts, rnd, value, ids)
    return history.snapshot()


class TestMemoInvalidation:
    """A predicate is evaluated (and memoised), then an ack lands: the
    next evaluation must follow the oracle, not the memo."""

    def setup_method(self):
        self.rqs = threshold_rqs(5, 1, 1, 0, 1)
        self.state, self.naive = both(self.rqs)
        self.c = Pair(1, "v")

    def ack(self, server, rnd, snapshot):
        self.state.record_ack(server, rnd, snapshot)
        self.naive.record_ack(server, rnd, snapshot)

    def test_ack_from_a_new_server(self):
        quorum = frozenset({1, 2, 3, 4})
        self.ack(1, 1, snapshot_with(1, 1, "v"))
        assert not self.state.safe(self.c)
        assert not self.state.valid1(self.c, quorum)
        assert self.state.observed_pairs() == [INITIAL_PAIR, self.c]
        assert_same_answers(self.state, self.naive)
        self.ack(2, 1, snapshot_with(1, 1, "v"))
        assert self.state.safe(self.c)
        assert self.state.valid1(self.c, quorum)
        assert_same_answers(self.state, self.naive)
        self.ack(3, 1, snapshot_with(2, 1, "w"))
        assert self.state.observed_pairs() == [
            INITIAL_PAIR, self.c, Pair(2, "w")
        ]
        assert_same_answers(self.state, self.naive)

    def test_byzantine_overwrite_drops_a_holder(self):
        quorum = frozenset({1, 2, 3, 4})
        for server in (1, 2):
            self.ack(server, 1, snapshot_with(1, 1, "v"))
        for server in (3, 4):
            self.ack(server, 1, History().snapshot())
        self.state.freeze_round1()
        self.naive.freeze_round1()
        bits = self.rqs.index.bit
        assert self.state.holders(self.c, 1) == bits[1] | bits[2]
        assert self.state.safe(self.c)
        assert self.state.valid1(self.c, quorum)
        assert not self.state.invalid(self.c)
        assert_same_answers(self.state, self.naive)
        # Server 2 answers round 2 with a snapshot that forgot ⟨1, v⟩.
        self.ack(2, 2, History().snapshot())
        assert self.state.holders(self.c, 1) == bits[1]
        assert not self.state.safe(self.c)
        assert not self.state.valid1(self.c, quorum)
        assert self.state.invalid(self.c)
        assert self.state.candidates() == [INITIAL_PAIR]
        assert_same_answers(self.state, self.naive)

    def test_overwrite_drops_a_listed_quorum_id(self):
        rqs = SYSTEMS["example7"]
        state, naive = both(rqs)
        q2 = frozenset({"s1", "s2", "s3", "s4", "s5"})
        q2_prime = frozenset({"s1", "s2", "s3", "s4", "s6"})
        c = Pair(1, 1)
        acks = [
            (s, 1, snapshot_with(1, 1, 1, frozenset({q2})))
            for s in ("s3", "s4")
        ] + [(s, 1, History().snapshot()) for s in ("s1", "s2", "s6")]
        for ack in acks:
            state.record_ack(*ack)
            naive.record_ack(*ack)
        assert state.valid3(c, q2_prime)
        assert_same_answers(state, naive)
        # s4 keeps the pair but no longer lists Q2's id.
        ack = ("s4", 2, snapshot_with(1, 1, 1))
        state.record_ack(*ack)
        naive.record_ack(*ack)
        assert not state.valid3(c, q2_prime)
        assert_same_answers(state, naive)

    def test_read_batch_ack_feeds_every_element_state(self):
        reader = StorageReader("reader", self.rqs)
        states = (ReadState(self.rqs), ReadState(self.rqs))
        naives = (NaiveReadState(self.rqs), NaiveReadState(self.rqs))
        pairs = (Pair(1, "x"), Pair(1, "y"))
        reader._batch_states[7] = states
        reader._batch_acks(7, 1)

        def deliver(server, replies):
            reader.on_message(Message(
                server, "reader", ReadBatchAck(7, 1, replies), 0.0
            ))
            for naive, snapshot in zip(naives, replies):
                naive.record_ack(server, 1, snapshot)

        replies = (snapshot_with(1, 1, "x"), snapshot_with(1, 1, "y"))
        deliver(1, replies)
        for state, naive, c in zip(states, naives, pairs):
            assert not state.safe(c)
            assert_same_answers(state, naive)
        deliver(2, replies)
        for state, naive, c in zip(states, naives, pairs):
            assert state.safe(c)
            assert_same_answers(state, naive)
        # One batched re-ack overwrites both elements' snapshots.
        deliver(2, (History().snapshot(), snapshot_with(1, 1, "y")))
        assert not states[0].safe(pairs[0])
        assert states[1].safe(pairs[1])
        for state, naive in zip(states, naives):
            assert_same_answers(state, naive)
