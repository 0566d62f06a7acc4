"""Tests for the canonical constructions (Section 2.2 examples)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import constructions as con
from repro.core.adversary import ThresholdAdversary
from repro.errors import QuorumSystemError


class TestQiFamilies:
    def test_subsets_missing_at_most(self):
        family = con.subsets_missing_at_most(range(1, 5), 1)
        sizes = sorted(len(q) for q in family)
        assert sizes == [3, 3, 3, 3, 4]

    def test_missing_zero_is_full_set_only(self):
        family = con.subsets_missing_at_most(range(1, 5), 0)
        assert family == (frozenset({1, 2, 3, 4}),)

    def test_rejects_bad_missing_count(self):
        with pytest.raises(QuorumSystemError):
            con.subsets_missing_at_most(range(1, 5), 4)

    def test_default_servers_rejects_nonpositive(self):
        with pytest.raises(QuorumSystemError):
            con.default_servers(0)


def _old_key_order(family):
    """The ordering rule as it was written before the families were
    built in normal form: one ``repr`` per (member, server)."""
    return tuple(
        sorted(set(family), key=lambda s: (len(s), sorted(map(repr, s))))
    )


class TestNormalForm:
    """Family order decides witness order, so it is pinned: building a
    family in normal form must give the tuple the old sort gave."""

    CONSTRUCTIONS = (
        lambda: con.majority_quorum_system(5),
        lambda: con.byzantine_quorum_system(7),
        lambda: con.fast_consensus_quorum_system(7, 2, 1, 0),
        lambda: con.threshold_rqs(8, 3, 1, 1, 2),
        lambda: con.threshold_rqs(12, 3, 1, 1, 2, validate=False),
        lambda: con.threshold_rqs(5, 2, 0, 2, 2, validate=False),
        lambda: con.pbft_style_rqs(1),
        con.figure3_rqs,
        con.example7_rqs,
        con.section12_rqs,
        lambda: con.masking_quorum_system(
            ThresholdAdversary(range(1, 8), 1),
            reversed(con.subsets_missing_at_most(range(1, 8), 2)),
        ),
        lambda: con.dissemination_quorum_system(
            con.example7_adversary(), con.example7_named_quorums().values()
        ),
    )

    @pytest.mark.parametrize("build", CONSTRUCTIONS)
    def test_every_construction_keeps_the_old_family_order(self, build):
        rqs = build()
        for family in (rqs.quorums, rqs.qc2, rqs.qc1):
            assert tuple(family) == _old_key_order(family)

    @pytest.mark.parametrize("ground", [
        range(1, 13),                       # '10' sorts before '2'
        ("s1", "s2", "s10", "b", "a"),
        (1, "1", 2.5, ("t", 1), None),      # mixed types, repr order
    ])
    def test_subsets_missing_at_most_needs_no_sort(self, ground):
        for i in range(0, 4):
            family = con.subsets_missing_at_most(ground, i)
            assert family == _old_key_order(family)
            assert len(set(family)) == len(family)

    def test_naive_section12_quorums_order(self):
        family = con.naive_section12_quorums()
        assert family == _old_key_order(family)

    def test_a_normalised_family_is_not_sorted_again(self):
        from repro.core import properties as props

        family = con.subsets_missing_at_most(range(1, 9), 3)
        assert props.normalize_family(family) is family
        shuffled = tuple(reversed(family)) + family[:3]
        again = props.normalize_family(shuffled)
        assert again == family and again is not shuffled
        assert props.normalize_family(again) is again


class TestClassicalExamples:
    def test_example2_majorities(self):
        rqs = con.majority_quorum_system(5)
        assert rqs.is_valid()
        assert rqs.qc1 == () and rqs.qc2 == ()
        assert min(len(q) for q in rqs.quorums) == 3

    def test_example3_two_thirds(self):
        rqs = con.byzantine_quorum_system(7)
        assert rqs.is_valid()
        assert min(len(q) for q in rqs.quorums) == 5

    def test_example4_dissemination_and_masking(self):
        from repro.core.adversary import ThresholdAdversary

        adv = ThresholdAdversary(range(1, 8), 1)
        quorums = con.subsets_missing_at_most(range(1, 8), 2)
        dissemination = con.dissemination_quorum_system(adv, quorums)
        assert dissemination.qc2 == ()
        masking = con.masking_quorum_system(adv, quorums)
        assert set(masking.qc2) == set(masking.quorums)
        assert masking.qc1 == ()
        assert masking.is_valid()

    def test_example5_fast_consensus(self):
        rqs = con.fast_consensus_quorum_system(7, 2, 1, k=1)
        assert rqs.is_valid()
        assert rqs.qc1 == rqs.qc2 and rqs.qc1 != ()

    def test_example5_rejects_bad_q(self):
        with pytest.raises(QuorumSystemError):
            con.fast_consensus_quorum_system(7, 2, 3)


class TestExample6:
    def test_rejects_bad_parameter_order(self):
        with pytest.raises(QuorumSystemError):
            con.threshold_rqs(5, 2, 0, 2, 1)  # q > r

    def test_pbft_instantiation(self):
        rqs = con.pbft_style_rqs(1)
        assert rqs.is_valid()
        assert rqs.qc1 == (frozenset({1, 2, 3, 4}),)
        # all quorums are class-2 in this instantiation (r = t)
        assert set(rqs.qc2) == set(rqs.quorums)

    def test_prediction_boundaries_are_sharp(self):
        # Property 1 boundary: n = 2t + k + 1 valid, n = 2t + k invalid.
        assert con.threshold_rqs_predicted_valid(8, 3, 1, 0, 0)
        assert not con.threshold_rqs_predicted_valid(7, 3, 1, 0, 0)
        # Property 3 boundary from the Theorem 3 experiment.
        assert not con.threshold_rqs_predicted_valid(8, 3, 1, 1, 3)
        assert con.threshold_rqs_predicted_valid(9, 3, 1, 1, 3)


class TestPaperInstances:
    def test_figure3(self):
        rqs = con.figure3_rqs()
        named = con.figure3_named_quorums()
        assert rqs.is_valid()
        assert rqs.quorum_class(named["Q1"]) == 1
        assert rqs.quorum_class(named["Q2"]) == 2
        assert rqs.quorum_class(named["Q"]) == 3
        assert rqs.quorum_class(named["Q'"]) == 3
        # The paper's remark: cardinality is not class — Q' is bigger
        # than Q1 yet only class 3.
        assert len(named["Q'"]) > len(named["Q1"])
        # The caption's intersection cardinalities at k = 1:
        # |Q2∩Q'| = |Q2∩Q1| = 2k+1, |Q2∩Q∩Q1| = k+1.
        q, qp, q2, q1 = (named[n] for n in ("Q", "Q'", "Q2", "Q1"))
        assert len(q2 & qp) == len(q2 & q1) == 3
        assert len(q2 & q & q1) == 2

    def test_example7(self):
        rqs = con.example7_rqs()
        named = con.example7_named_quorums()
        assert rqs.is_valid()
        assert rqs.quorum_class(named["Q1"]) == 1
        assert rqs.quorum_class(named["Q2"]) == 2
        assert rqs.quorum_class(named["Q'2"]) == 2

    def test_section12(self):
        rqs = con.section12_rqs()
        assert rqs.is_valid()
        assert min(len(q) for q in rqs.qc1) == 4
        assert min(len(q) for q in rqs.quorums) == 3

    def test_naive_section12_family_would_violate_p2(self):
        """The Figure 1 configuration (3-server fast quorums) is exactly
        what Property 2 forbids: n = 5 ≤ t + 2k + 2q = 6."""
        from repro.core.rqs import RefinedQuorumSystem
        from repro.core.adversary import ExplicitAdversary

        adv = ExplicitAdversary(con.default_servers(5))
        quorums = con.naive_section12_quorums()
        rqs = RefinedQuorumSystem(
            adv, quorums, qc1=quorums, qc2=quorums, validate=False
        )
        names = [name for name, _ in rqs.violations()]
        assert "P2" in names


@given(
    n=st.integers(3, 7),
    t=st.integers(1, 4),
    k=st.integers(0, 3),
    q=st.integers(0, 3),
    r=st.integers(0, 3),
)
@settings(max_examples=120, deadline=None)
def test_closed_form_matches_brute_force(n, t, k, q, r):
    """The Example 6 formulas are tight in both directions."""
    if not (0 <= q <= r <= t < n and k <= n):
        return
    rqs = con.threshold_rqs(n, t, k, q, r, validate=False)
    assert rqs.is_valid() == con.threshold_rqs_predicted_valid(n, t, k, q, r)
