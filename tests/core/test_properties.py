"""Tests for the three RQS properties and their negation witnesses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adversary import ExplicitAdversary, ThresholdAdversary
from repro.core import properties as props
from repro.core.constructions import (
    example7_adversary,
    example7_named_quorums,
    subsets_missing_at_most,
    threshold_rqs,
)
from repro.core.rqs import RefinedQuorumSystem

SERVERS = tuple(range(1, 9))


def family(*sets):
    return props.normalize_family(sets)


class TestProperty1:
    def test_holds_for_majorities_crash(self):
        adv = ExplicitAdversary(tuple(range(1, 6)))
        quorums = family({1, 2, 3}, {3, 4, 5}, {1, 4, 5})
        assert props.check_property1(adv, quorums) is None

    def test_detects_corruptible_intersection(self):
        adv = ThresholdAdversary(tuple(range(1, 6)), 1)
        quorums = family({1, 2, 3}, {3, 4, 5})
        witness = props.check_property1(adv, quorums)
        assert witness is not None
        assert witness.q & witness.q_prime == frozenset({3})
        assert "P1" in witness.describe()

    def test_self_intersection_checked(self):
        adv = ThresholdAdversary(tuple(range(1, 6)), 2)
        quorums = family({1, 2})  # Q ∩ Q = {1,2} ∈ B2
        assert props.check_property1(adv, quorums) is not None


class TestProperty2:
    def test_holds_with_large_triple_intersections(self):
        # n=8, t=3, k=1, q=1: |Q1∩Q1'∩Q| >= 8-2-3 = 3 > 2k
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        assert (
            props.check_property2(rqs.adversary, rqs.qc1, rqs.quorums)
            is None
        )

    def test_detects_small_triple_intersection(self):
        # n=5, q=2, t=2, k=0: triple intersections can be empty
        adv = ExplicitAdversary(tuple(range(1, 6)))
        quorums = family({1, 2, 3}, {3, 4, 5}, {1, 2, 3, 4, 5})
        qc1 = family({1, 2, 3}, {3, 4, 5})
        witness = props.check_property2(adv, qc1, quorums)
        # {1,2,3} ∩ {3,4,5} ∩ any = at most {3}; with B = {∅} it is
        # large iff non-empty, so the witness only appears if some
        # triple is empty — here {1,2,3}∩{3,4,5}∩... = {3}, non-empty.
        assert witness is None

    def test_detects_empty_triple_intersection(self):
        adv = ExplicitAdversary(tuple(range(1, 6)))
        quorums = family({1, 2}, {4, 5}, {2, 3, 4})
        qc1 = family({1, 2}, {4, 5})
        witness = props.check_property2(adv, qc1, quorums)
        assert witness is not None
        assert witness.q1 & witness.q1_prime & witness.q == frozenset()


class TestProperty3:
    def test_example7_satisfies_p3(self):
        adv = example7_adversary()
        named = example7_named_quorums()
        quorums = tuple(named.values())
        qc1 = (named["Q1"],)
        assert props.check_property3(adv, qc1, quorums, quorums) is None

    def test_example7_p3b_case(self):
        """The paper's Example 7 analysis: P3a(Q2, Q'2, B12) fails but
        P3b(Q2, Q'2, B34) holds."""
        adv = example7_adversary()
        named = example7_named_quorums()
        q2, q2p, q1 = named["Q2"], named["Q'2"], named["Q1"]
        b12 = frozenset({"s1", "s2"})
        b34 = frozenset({"s3", "s4"})
        assert not props.p3a(adv, q2, q2p, b12)  # {s3,s4} ∈ B
        assert not props.p3a(adv, q2, q2p, b34)  # {s1,s2} ∈ B
        assert props.p3b((q1,), q2, q2p, b34)    # s2 survives

    def test_p3b_requires_nonempty_qc1(self):
        named = example7_named_quorums()
        assert not props.p3b((), named["Q2"], named["Q'2"], frozenset())

    def test_violation_witness_has_proof_shape(self):
        """The witness must satisfy the algebra used in Theorem 3."""
        rqs = threshold_rqs(8, 3, 1, 1, 3, validate=False)
        witness = props.check_property3(
            rqs.adversary, rqs.qc1, rqs.qc2, rqs.quorums
        )
        assert witness is not None
        q2, q = witness.q2, witness.q
        assert (q2 & q) - witness.b1_prime == witness.b2
        assert rqs.adversary.contains(witness.b2)
        assert witness.b0 <= witness.b1
        assert (q2 & q) == witness.b1 | witness.b2

    def test_empty_intersection_violates_p3(self):
        adv = ExplicitAdversary(tuple(range(1, 7)), [{1}])
        quorums = family({1, 2, 3}, {4, 5, 6})
        witness = props.check_property3(adv, family({1, 2, 3}), quorums, quorums)
        assert witness is not None


def _check_property3_per_pair(adversary, qc1, qc2, quorums):
    """Property 3 checked pair by pair, never skipping a repeated
    ``Q2 ∩ Q`` — the reference for the first witness."""
    for q2 in qc2:
        for q in quorums:
            base = q2 & q
            for b in adversary.restricted_to(base).enumerate():
                if props.p3a(adversary, q2, q, b) or props.p3b(qc1, q2, q, b):
                    continue
                return props.P3Witness(
                    props._failing_q1(qc1, q2, q, b), q2, q, b, base - b
                )
    return None


class _CountingBits(dict):
    """server -> bit, counting the look-ups: one per server of each
    member that is really converted to a mask."""

    lookups = 0

    def __getitem__(self, server):
        self.lookups += 1
        return super().__getitem__(server)


class _CountingThreshold(ThresholdAdversary):
    restrictions = 0

    def __init__(self, ground_set, k):
        super().__init__(ground_set, k)
        self._bit = _CountingBits(self._bit)

    @property
    def converted_servers(self):
        return self._bit.lookups

    def restricted_to(self, subset):
        self.restrictions += 1
        return super().restricted_to(subset)


@pytest.fixture
def explicit_built(monkeypatch):
    """How many ``ExplicitAdversary`` objects have been constructed."""
    built = []
    shipped = ExplicitAdversary.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        shipped(self, *args, **kwargs)

    monkeypatch.setattr(ExplicitAdversary, "__init__", counting)
    return built


@pytest.fixture
def decided(monkeypatch):
    """The intersections Property 3 was decided on."""
    asked = []
    shipped = props._fails_property3

    def counting(adversary, qc1_masks, base):
        asked.append(base)
        return shipped(adversary, qc1_masks, base)

    monkeypatch.setattr(props, "_fails_property3", counting)
    return asked


class TestProperty3FirstWitness:
    """Each distinct ``Q2 ∩ Q`` is checked once; the witness returned is
    still the one of the first failing pair."""

    def test_example6_broken_p3_witness(self):
        # The family experiments/theorem3.py and theorem6.py build on.
        rqs = threshold_rqs(8, 3, 1, 1, 3, validate=False)
        assert rqs.first_violation() == ("P3", props.P3Witness(
            q1=frozenset({2, 3, 4, 5, 6, 7, 8}),
            q2=frozenset({1, 2, 3, 4, 5}),
            q=frozenset({1, 2, 6, 7, 8}),
            b1_prime=frozenset({2}),
            b2=frozenset({1}),
        ))

    def test_hand_built_explicit_adversary_witness(self):
        # Example 7 with s4 dropped from Q1: P1 and P2 still hold, but
        # Q1 no longer meets Q2 ∩ Q'2 \ {s1,s2} = {s3,s4} ∈ B.
        q1 = frozenset({"s2", "s5", "s6"})
        q2 = frozenset({"s1", "s2", "s3", "s4", "s5"})
        q2_prime = frozenset({"s1", "s2", "s3", "s4", "s6"})
        rqs = RefinedQuorumSystem(
            example7_adversary(), (q1, q2, q2_prime),
            qc1=(q1,), qc2=(q1, q2, q2_prime), validate=False,
        )
        assert rqs.violations() == (("P3", props.P3Witness(
            q1=q1, q2=q2, q=q2_prime,
            b1_prime=frozenset({"s1", "s2"}),
            b2=frozenset({"s3", "s4"}),
        )),)

    def test_same_witness_as_the_per_pair_check(self):
        # n <= t + r + k + min(k, q): Property 3 fails in each.
        for params in ((8, 3, 1, 1, 3), (7, 3, 1, 1, 3), (6, 2, 1, 1, 2),
                       (5, 2, 1, 0, 2), (9, 4, 1, 1, 3)):
            rqs = threshold_rqs(*params, validate=False)
            args = (rqs.adversary, rqs.qc1, rqs.qc2, rqs.quorums)
            expected = _check_property3_per_pair(*args)
            assert expected is not None
            assert props.check_property3(*args) == expected

    def test_validating_example6_restricts_and_enumerates_nothing(
        self, explicit_built, decided
    ):
        """What validation costs, without a clock: the three families
        come with the masks they were enumerated with, so not one
        server of one quorum is looked up; each of the 219 distinct
        ``Q2 ∩ Q`` of the 3441 pairs is decided once on those masks
        (every one is large here, so not even the maximal sets of ``B``
        are asked for) — and no induced structure is built, so no
        element of ``B`` is enumerated."""
        adversary = _CountingThreshold(SERVERS, 1)
        rqs = RefinedQuorumSystem(
            adversary,
            subsets_missing_at_most(SERVERS, 3),
            qc1=subsets_missing_at_most(SERVERS, 1),
            qc2=subsets_missing_at_most(SERVERS, 2),
        )
        assert len(rqs.qc2) * len(rqs.quorums) == 3441
        assert len(decided) == len(set(decided)) == 219
        assert adversary.restrictions == 0
        assert explicit_built == []
        assert adversary.converted_servers == 0
        # The index is built on those very masks, not on its own.
        assert rqs.index.masks[3] is rqs._masks[3]
        assert rqs._masks[3] is rqs.quorums.masks
        assert adversary.converted_servers == 0

    def test_a_failing_system_restricts_once(self, explicit_built, decided):
        """Only the one failing pair is walked element by element."""
        adversary = _CountingThreshold(SERVERS, 1)
        rqs = RefinedQuorumSystem(
            adversary,
            subsets_missing_at_most(SERVERS, 3),
            qc1=subsets_missing_at_most(SERVERS, 1),
            qc2=subsets_missing_at_most(SERVERS, 3),
            validate=False,
        )
        assert adversary.converted_servers == 0
        name, witness = rqs.first_violation()
        assert name == "P3"
        assert adversary.restrictions == len(explicit_built) == 1
        assert explicit_built[0].ground_set == witness.q2 & witness.q
        # Every intersection before the failing one passed, once each.
        assert len(decided) == len(set(decided))
        # No quorum is converted: the eight singleton maximal sets of B
        # are, and the differences of the one pair walked for its
        # witness (three servers in all).
        assert adversary.converted_servers == 8 + 3


class TestNormalizeFamily:
    def test_deduplicates(self):
        result = props.normalize_family([{1, 2}, {2, 1}, {3}])
        assert result == (frozenset({3}), frozenset({1, 2}))

    def test_deterministic_order(self):
        a = props.normalize_family([{3, 4}, {1, 2}, {5}])
        b = props.normalize_family([{5}, {1, 2}, {3, 4}])
        assert a == b


@given(
    k=st.integers(0, 2),
    extra=st.sets(st.integers(1, 8), min_size=5, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_p3_monotone_under_quorum_growth(k, extra):
    """Adding elements to a quorum can only help P3a (the difference
    grows) — sanity property used by the checker's pruning."""
    adv = ThresholdAdversary(SERVERS, k)
    q2 = frozenset({1, 2, 3, 4, 5})
    small = frozenset({4, 5, 6, 7, 8})
    big = small | extra
    for b in adv.maximal_sets():
        if props.p3a(adv, q2, small, b):
            assert props.p3a(adv, q2, big, b)
