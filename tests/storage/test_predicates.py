"""Tests for the reader-side predicates (Figure 7 lines 1-9)."""

from repro.core.constructions import example7_rqs, threshold_rqs
from repro.storage.history import INITIAL_PAIR, History, Pair
from repro.storage.predicates import ReadState


def snapshot_with(ts, rnd, value, quorums=frozenset()):
    history = History()
    history.store(ts, rnd, value, quorums)
    return history.snapshot()


def empty_snapshot():
    return History().snapshot()


def frozen(state, acks):
    """Feed ``(server, snapshot)`` round-1 acks, then end round 1."""
    for server, snapshot in acks:
        state.record_ack(server, 1, snapshot)
    state.freeze_round1()
    return state


# Lines 3-5 decide only inside line 6: each state below is staged so
# that the named line alone can vouch for ``c`` on the responded quorums.


class TestValid1:
    """Line 3: a basic subset of the quorum holds ``c`` in slot 1."""

    def test_holds_with_basic_holder_set(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        c = Pair(1, "v")
        state = frozen(ReadState(rqs), [
            (1, snapshot_with(1, 1, "v")), (2, snapshot_with(1, 1, "v")),
            (3, empty_snapshot()), (4, empty_snapshot()),
        ])
        assert state.holders(c, 2) == 0
        assert not state.invalid(c)

    def test_fails_with_corruptible_holder_set(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        c = Pair(1, "v")
        state = frozen(ReadState(rqs), [
            (1, snapshot_with(1, 1, "v")),  # one holder ∈ B1
            (2, empty_snapshot()), (3, empty_snapshot()),
            (4, empty_snapshot()),
        ])
        assert state.holders(c, 1) == rqs.index.bit[1]
        assert state.invalid(c)


class TestValid2:
    """Line 4: one slot-2 holder in the quorum suffices."""

    def test_single_slot2_holder_suffices(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        c = Pair(1, "v")
        state = frozen(ReadState(rqs), [
            (3, snapshot_with(1, 2, "v")), (2, empty_snapshot()),
            (4, empty_snapshot()), (5, empty_snapshot()),
        ])
        # Server 3 alone holds c, in slots 1 and 2: {3} ∈ B1, so line 3
        # vouches nowhere.
        assert state.holders(c, 1) == state.holders(c, 2) == rqs.index.bit[3]
        assert not state.invalid(c)  # {2, 3, 4, 5} holds server 3
        state.record_ack(1, 2, empty_snapshot())
        assert state.invalid(c)  # {1, 2, 4, 5} does not


class TestValid3:
    """Line 5: the Figure 4 ex5 situation — {s3, s4} hold ``c`` with
    Q2's id, {s1, s2} lie; P3b makes ``c`` valid on Q2'."""

    Q2 = frozenset({"s1", "s2", "s3", "s4", "s5"})

    def staged(self, ids):
        rqs = example7_rqs()
        state = frozen(ReadState(rqs), [
            (s, snapshot_with(1, 1, 1, ids)) for s in ("s3", "s4")
        ] + [(s, empty_snapshot()) for s in ("s1", "s2", "s6")])
        # Q2' = {s1, s2, s3, s4, s6} is the one responded quorum, and
        # lines 3-4 cannot vouch on it: {s3, s4} is not basic.
        c = Pair(1, 1)
        assert state.holders(c, 2) == 0
        assert not rqs.index.is_basic(state.holders(c, 1))
        return state, c

    def test_example7_p3b_scenario(self):
        state, c = self.staged(frozenset({self.Q2}))
        assert not state.invalid(c)

    def test_fails_without_quorum_ids(self):
        state, c = self.staged(frozenset())
        assert state.invalid(c)


class TestSafetyPredicates:
    def test_safe_requires_basic_confirmations(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        state.record_ack(1, 1, snapshot_with(9, 1, "fake"))
        assert not state.safe(Pair(9, "fake"))
        state.record_ack(2, 1, snapshot_with(9, 1, "fake"))
        assert state.safe(Pair(9, "fake"))

    def test_bottom_is_always_readable(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        for server in (1, 2):
            state.record_ack(server, 1, empty_snapshot())
        assert state.safe(INITIAL_PAIR)

    def test_invalid_by_highest_ts(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        for server in (1, 2, 3, 4):
            state.record_ack(server, 1, empty_snapshot())
        state.freeze_round1()
        assert state.highest_ts == 0
        assert state.invalid(Pair(5, "future"))

    def test_candidate_selection_prefers_high_timestamp(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        for server in (1, 2, 3, 4, 5):
            history = History()
            history.store(1, 2, "old", frozenset())
            history.store(2, 2, "new", frozenset())
            state.record_ack(server, 1, history.snapshot())
        state.freeze_round1()
        assert not state.invalid(Pair(1, "old"))
        assert state.candidates() == [Pair(2, "new")]


class TestBcd:
    def test_bcd1_requires_class1_intersections(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        state = ReadState(rqs)
        c = Pair(1, "v")
        # 6 holders: Q1∩Q1' can be covered (8 - 2q = 6) -> holds.
        for server in range(3, 9):
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        assert state.bcd1(c, 1)
        # with only 5 holders it must fail
        fresh = ReadState(rqs)
        for server in range(4, 9):
            fresh.record_ack(server, 1, snapshot_with(1, 1, "v"))
        assert not fresh.bcd1(c, 1)

    def test_bcd1_r2_needs_quorum_id(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        c = Pair(1, "v")
        qr = frozenset(range(3, 9))  # a class-2 quorum (6 elements)
        with_ids = ReadState(rqs)
        without_ids = ReadState(rqs)
        for server in range(3, 9):
            with_ids.record_ack(
                server, 1, snapshot_with(1, 2, "v", frozenset({qr}))
            )
            without_ids.record_ack(server, 1, snapshot_with(1, 2, "v"))
        assert with_ids.bcd1(c, 2)
        assert not without_ids.bcd1(c, 2)

    def test_bcd2_returns_confirmed_class2_quorums(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        state = ReadState(rqs)
        c = Pair(1, "v")
        for server in range(2, 9):
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        state.freeze_round1()
        confirmed = state.bcd2(c, 1)
        assert confirmed
        assert all(q in set(rqs.qc2) for q in confirmed)

    def test_bcd2_empty_without_round1_class2_quorum(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        state = ReadState(rqs)
        c = Pair(1, "v")
        for server in range(4, 9):  # only 5 responders: no class-2 quorum
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        state.freeze_round1()
        assert state.bcd2(c, 1) == ()
