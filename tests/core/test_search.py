"""Tests for RQS discovery (search over quorum families)."""

import pytest

from repro.core.adversary import ExplicitAdversary, ThresholdAdversary
from repro.core import search
from repro.core.constructions import example7_adversary
from repro.errors import QuorumSystemError


class TestProperty1Family:
    def test_keeps_intersecting_quorums(self):
        adv = ThresholdAdversary(range(1, 6), 0)
        candidates = search.all_subsets(range(1, 6), min_size=3)
        family = search.property1_family(adv, candidates)
        assert family
        for q in family:
            for q_prime in family:
                assert adv.is_basic(q & q_prime)

    def test_drops_corruptible_candidates(self):
        adv = ThresholdAdversary(range(1, 6), 1)
        family = search.property1_family(adv, [frozenset({1})])
        assert family == ()


class TestClassify:
    def test_classification_is_legal(self):
        adv = ThresholdAdversary(range(1, 8), 1)
        from repro.core.constructions import subsets_missing_at_most

        quorums = subsets_missing_at_most(range(1, 8), 2)
        qc1, qc2 = search.classify_quorums(adv, quorums)
        assert set(qc1) <= set(qc2) <= set(quorums)
        from repro.core.rqs import RefinedQuorumSystem

        rqs = RefinedQuorumSystem(adv, quorums, qc1=qc1, qc2=qc2)
        assert rqs.is_valid()

    def test_finds_fast_quorums_when_possible(self):
        # n=7, t=2, k=0: the full set should classify as class 1.
        adv = ThresholdAdversary(range(1, 8), 0)
        from repro.core.constructions import subsets_missing_at_most

        quorums = subsets_missing_at_most(range(1, 8), 2)
        qc1, _ = search.classify_quorums(adv, quorums)
        assert qc1


class TestSearchRqs:
    def test_search_for_general_adversary(self):
        rqs = search.search_rqs(example7_adversary(), min_quorum_size=4)
        assert rqs.is_valid()
        assert rqs.quorums

    def test_search_fails_when_no_family_exists(self):
        # Every candidate quorum is itself corruptible, so no
        # Property-1 family exists over these candidates.
        adv = ExplicitAdversary(
            (1, 2, 3), [{1, 2}, {2, 3}, {1, 3}]
        )
        with pytest.raises(QuorumSystemError):
            search.search_rqs(
                adv,
                candidates=[{1, 2}, {2, 3}, {1, 3}],
            )
