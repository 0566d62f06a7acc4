"""Unit and property tests for adversary structures (Definition 1)."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adversary import (
    ExplicitAdversary,
    ThresholdAdversary,
    as_subset,
)
from repro.errors import AdversaryError

SERVERS = tuple(range(1, 7))


class TestThresholdAdversary:
    def test_contains_by_cardinality(self):
        adv = ThresholdAdversary(SERVERS, 2)
        assert adv.contains({1})
        assert adv.contains({1, 2})
        assert not adv.contains({1, 2, 3})
        assert adv.contains(set())

    def test_outside_ground_set_not_contained(self):
        adv = ThresholdAdversary(SERVERS, 2)
        assert not adv.contains({99})

    def test_k_zero_is_crash_only(self):
        adv = ThresholdAdversary(SERVERS, 0)
        assert adv.contains(set())
        assert not adv.contains({1})
        assert adv.maximal_sets() == (frozenset(),)

    def test_rejects_negative_k(self):
        with pytest.raises(AdversaryError):
            ThresholdAdversary(SERVERS, -1)

    def test_rejects_k_above_n(self):
        with pytest.raises(AdversaryError):
            ThresholdAdversary(SERVERS, 7)

    def test_rejects_empty_ground_set(self):
        with pytest.raises(AdversaryError):
            ThresholdAdversary((), 0)

    def test_basic_iff_size_above_k(self):
        adv = ThresholdAdversary(SERVERS, 2)
        assert not adv.is_basic({1, 2})
        assert adv.is_basic({1, 2, 3})

    def test_large_iff_size_above_2k(self):
        adv = ThresholdAdversary(SERVERS, 2)
        assert not adv.is_large_mask(adv.mask({1, 2, 3, 4}))
        assert adv.is_large_mask(adv.mask({1, 2, 3, 4, 5}))

    def test_maximal_sets_have_cardinality_k(self):
        adv = ThresholdAdversary(SERVERS, 2)
        maxima = adv.maximal_sets()
        assert all(len(m) == 2 for m in maxima)
        assert len(maxima) == 15  # C(6, 2)


class TestExplicitAdversary:
    def test_example7_structure(self):
        servers = ("s1", "s2", "s3", "s4", "s5", "s6")
        adv = ExplicitAdversary(
            servers, ({"s1", "s2"}, {"s3", "s4"}, {"s2", "s4"})
        )
        assert adv.contains({"s1", "s2"})
        assert adv.contains({"s2"})
        assert adv.contains(set())
        assert not adv.contains({"s1", "s3"})
        assert not adv.contains({"s5"})

    def test_empty_family_is_crash_only(self):
        adv = ExplicitAdversary(SERVERS)
        assert adv.contains(set())
        assert not adv.contains({1})

    def test_non_maximal_inputs_are_absorbed(self):
        adv = ExplicitAdversary(SERVERS, ({1}, {1, 2}, {2}))
        assert adv.maximal_sets() == (frozenset({1, 2}),)

    def test_rejects_sets_outside_ground(self):
        with pytest.raises(AdversaryError):
            ExplicitAdversary(SERVERS, ({1, 99},))

    def test_restriction(self):
        adv = ExplicitAdversary(SERVERS, ({1, 2}, {3, 4}))
        restricted = adv.restricted_to({1, 3, 4})
        assert restricted.contains({3, 4})
        assert restricted.contains({1})
        assert not restricted.contains({1, 3})

    def test_restriction_outside_ground_rejected(self):
        adv = ExplicitAdversary(SERVERS, ({1, 2},))
        with pytest.raises(AdversaryError):
            adv.restricted_to({1, 99})

    def test_enumerate_yields_downward_closure(self):
        adv = ExplicitAdversary(SERVERS, ({1, 2},))
        members = set(adv.enumerate())
        assert members == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }


# -- property-based tests ----------------------------------------------------

subset_strategy = st.sets(st.integers(1, 6), max_size=6)
family_strategy = st.lists(
    st.sets(st.integers(1, 6), max_size=4), max_size=4
)


@given(family=family_strategy, probe=subset_strategy)
@settings(max_examples=200, deadline=None)
def test_explicit_adversary_is_subset_closed(family, probe):
    """Definition 1: B' ⊆ B ∈ B implies B' ∈ B."""
    adv = ExplicitAdversary(SERVERS, family)
    if adv.contains(probe):
        for element in list(probe):
            assert adv.contains(probe - {element})


@given(family=family_strategy, probe=subset_strategy)
@settings(max_examples=200, deadline=None)
def test_large_implies_basic(family, probe):
    """A large subset is always basic (Lemma 2 degenerate form)."""
    adv = ExplicitAdversary(SERVERS, family)
    if adv.is_large_mask(adv.mask(probe)):
        assert adv.is_basic(probe)


def explicit_threshold(ground_set, k):
    """``B_k`` materialized explicitly, for cross-checking."""
    threshold = ThresholdAdversary(ground_set, k)
    return ExplicitAdversary(threshold.ground_set, threshold.maximal_sets())


@given(k=st.integers(0, 4), probe=subset_strategy)
@settings(max_examples=100, deadline=None)
def test_threshold_matches_explicit_materialization(k, probe):
    threshold = ThresholdAdversary(SERVERS, k)
    explicit = explicit_threshold(SERVERS, k)
    assert threshold.contains(probe) == explicit.contains(probe)
    assert threshold.is_basic(probe) == explicit.is_basic(probe)
    if probe <= set(SERVERS):
        assert threshold.is_large_mask(threshold.mask(probe)) == (
            explicit.is_large_mask(explicit.mask(probe))
        )


def test_a_set_that_leaves_the_ground_set_has_one_answer():
    """A set with a member outside ``S`` has no mask and is not in
    ``B`` — hence basic — whichever class answers; inside ``S`` both
    classes answer by cardinality."""
    assert ThresholdAdversary(SERVERS, 1).mask({1, "x"}) is None
    for n in range(1, 6):
        servers = tuple(range(1, n + 1))
        universe = servers + ("x",)
        for k in range(n + 1):
            threshold = ThresholdAdversary(servers, k)
            explicit = explicit_threshold(servers, k)
            for size in range(len(universe) + 1):
                for probe in map(frozenset, combinations(universe, size)):
                    answers = [
                        (adv.contains(probe), adv.is_basic(probe),
                         adv.mask(probe))
                        for adv in (threshold, explicit)
                    ]
                    assert answers[0] == answers[1]
                    if "x" in probe:
                        assert answers[0] == (False, True, None)
                        continue
                    assert answers[0][:2] == (size <= k, size > k)
                    assert [
                        adv.is_large_mask(answers[0][2])
                        for adv in (threshold, explicit)
                    ] == [size > 2 * k] * 2


@given(family=family_strategy, probe=subset_strategy)
@settings(max_examples=200, deadline=None)
def test_large_means_not_covered_by_two(family, probe):
    """Cross-check is_large_mask against its definition by
    enumeration."""
    adv = ExplicitAdversary(SERVERS, family)
    target = as_subset(probe)
    covered = any(
        target <= (b1 | b2)
        for b1 in adv.enumerate()
        for b2 in adv.enumerate()
    )
    assert adv.is_large_mask(adv.mask(target)) == (not covered)
