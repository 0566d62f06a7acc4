"""Tests for the canonical constructions (Section 2.2 examples)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import constructions as con
from repro.core.adversary import ThresholdAdversary
from repro.errors import QuorumSystemError


def naive_section12_quorums():
    """The *broken* fast-quorum choice of Figure 1: fast = any 3 servers.

    ``threshold_rqs(5,2,0,2,2)`` would reject this via Property 2
    (``n = 5 ≤ t + 2k + 2q = 6``), which is exactly the paper's point.
    """
    return con.subsets_missing_at_most(con.default_servers(5), 2)


def figure3_named_quorums() -> dict:
    """The Figure 3 quorums by the paper's names."""
    return {
        "Q": frozenset({3, 4, 5, 6, 7}),
        "Q'": frozenset({1, 2, 3, 4, 7, 8}),
        "Q2": frozenset({1, 2, 3, 5, 6}),
        "Q1": frozenset({2, 5, 6, 7, 8}),
    }


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
        family = naive_section12_quorums()
        assert family == _old_key_order(family)

    def test_a_normalised_family_is_not_sorted_again(self):
        from repro.core import properties as props

        family = con.subsets_missing_at_most(range(1, 9), 3)
        assert props.normalize_family(family) is family
        shuffled = tuple(reversed(family)) + family[:3]
        again = props.normalize_family(shuffled)
        assert again == family and again is not shuffled
        assert props.normalize_family(again) is again


def _enumerated_families():
    """``Q_i`` families and tails over awkward ground sets, each with an
    adversary over the same ground set."""
    from repro.core.adversary import ExplicitAdversary

    for ground in (range(1, 13), ("s1", "s2", "s10", "b", "a"),
                   (1, "1", 2.5, ("t", 1), None)):
        for i in range(0, 4):
            family = con.subsets_missing_at_most(ground, i)
            yield ExplicitAdversary(ground), family
            yield ExplicitAdversary(ground), con._tail_missing_at_most(
                family, i // 2
            )
    yield ExplicitAdversary(range(1, 6)), naive_section12_quorums()


def _families_with_masks():
    """Every family a construction returns, with its adversary."""
    yield from _enumerated_families()
    for build in TestNormalForm.CONSTRUCTIONS:
        rqs = build()
        for family in (rqs.quorums, rqs.qc2, rqs.qc1):
            yield rqs.adversary, family


class TestCarriedMasks:
    """A threshold family is enumerated together with its masks, once
    per ground set and missing-count, and no adversary over that ground
    set converts it again."""

    def test_carried_masks_are_the_adversarys_own(self):
        carried = 0
        for adversary, family in _families_with_masks():
            if family.masks is None:
                continue
            carried += 1
            assert family.servers == adversary.servers
            assert family.masks == tuple(map(adversary.mask, family))
            assert adversary.masks(family) is family.masks
        assert carried > 40

    def test_another_bit_order_converts(self):
        """The masks belong to one ``servers`` tuple: an adversary over
        a larger (or other) ground set converts as it always did."""
        family = con.subsets_missing_at_most(range(2, 7), 1)
        wider = ThresholdAdversary(range(1, 8), 1)
        assert family.servers != wider.servers
        masks = wider.masks(family)
        assert masks == tuple(map(wider.mask, family)) != family.masks
        stranger = ThresholdAdversary("abcde", 1)
        assert stranger.masks(family) == (None,) * len(family)

    def test_sorting_into_normal_form_carries_nothing(self):
        from repro.core import properties as props

        family = props.normalize_family(
            reversed(con.subsets_missing_at_most(range(1, 6), 2))
        )
        assert family.masks is None and family.servers is None

    def test_a_family_survives_pickling_and_copying(self):
        import copy
        import pickle

        family = con.subsets_missing_at_most(range(1, 6), 2)
        for twin in (pickle.loads(pickle.dumps(family)), copy.copy(family)):
            assert type(twin) is type(family) and twin == family
            assert (twin.servers, twin.masks) == (family.servers, family.masks)

    def test_the_e11_grid_enumerates_once_per_n_and_t(self, monkeypatch):
        """953 systems over five ground sets: twenty enumerations (one
        per ``(n, t)``; it was one per system), and not one server of
        one quorum looked up to convert a family."""
        from repro.core.adversary import Adversary
        from repro.core.properties import NormalizedFamily
        from repro.experiments import bounds
        from repro.scenarios import run_grid

        enumerated = []
        shipped = con.combinations

        def counting(pool, size):
            enumerated.append((tuple(pool), size))
            return shipped(pool, size)

        converted = []
        convert = Adversary.masks

        def counting_masks(self, family):
            masks = convert(self, family)
            if isinstance(family, NormalizedFamily):
                converted.append(masks is not family.masks)
            return masks

        monkeypatch.setattr(con, "combinations", counting)
        monkeypatch.setattr(Adversary, "masks", counting_masks)
        con._enumerate_missing_at_most.cache_clear()
        sweep = run_grid(bounds.bounds_grid(7))
        assert sweep.verdict_counts() == {"match": 953}
        info = con._enumerate_missing_at_most.cache_info()
        assert (info.misses, info.hits) == (20, 933)
        # Two walks (servers, bits) per size of each enumeration.
        assert len(enumerated) == 2 * sum(
            t + 1 for n in range(3, 8) for t in range(1, n)
        )
        # RQS, QC2 and QC1 of each system: handed back, never converted.
        assert len(converted) == 3 * 953 and not any(converted)

    def test_the_shared_enumerations_are_bounded(self):
        con._enumerate_missing_at_most.cache_clear()
        for n in range(3, 60):
            con.subsets_missing_at_most(range(n), 1)
        info = con._enumerate_missing_at_most.cache_info()
        assert info.currsize == info.maxsize == 32


class TestSharedAdversaries:
    """``B_k`` is built once per ``(S, k)`` and shared, like ``Q_i``."""

    def test_systems_over_one_ground_set_and_k_share_b_k(self):
        con._threshold_adversary.cache_clear()
        a = con.threshold_rqs(7, 2, 1, 1, 2)
        assert con.threshold_rqs(7, 1, 1, 0, 1).adversary is a.adversary
        assert con.fast_consensus_quorum_system(7, 2, 1, 1).adversary is (
            a.adversary
        )
        other = con.threshold_rqs(7, 2, 0, 1, 2).adversary
        assert other is not a.adversary and other.k == 0
        assert con.threshold_rqs(8, 2, 1, 1, 2).adversary is not a.adversary
        info = con._threshold_adversary.cache_info()
        assert (info.misses, info.hits) == (3, 2)

    def test_a_shared_adversary_answers_as_a_fresh_one(self):
        shared = con.threshold_rqs(8, 3, 1, 1, 2).adversary
        fresh = ThresholdAdversary(range(1, 9), 1)
        assert shared.maximal_masks == fresh.maximal_masks
        assert all(
            shared.contains_mask(m) == fresh.contains_mask(m)
            and shared.is_large_mask(m) == fresh.is_large_mask(m)
            for m in range(1 << 8)
        )

    def test_the_shared_adversaries_are_bounded(self):
        con._threshold_adversary.cache_clear()
        for n in range(3, 60):
            con._threshold_adversary(con.default_servers(n), 1)
        info = con._threshold_adversary.cache_info()
        assert info.currsize == info.maxsize == 32


_HASH_SEED_SCRIPT = """
from tests.core.test_constructions import _enumerated_families

for adversary, family in _enumerated_families():
    assert family.masks == tuple(map(adversary.mask, family))
    print(family.servers, family.masks)
"""


def test_carried_masks_do_not_depend_on_the_hash_seed():
    """String ids hash differently in every interpreter run; the
    enumeration walks the ``repr``-sorted ground set, so the carried
    masks are the same bytes — and the adversary's own — under any
    seed."""
    root = Path(__file__).resolve().parents[2]
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join((str(root / "src"), str(root)))},
            capture_output=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 25


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
        named = figure3_named_quorums()
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
        quorums = naive_section12_quorums()
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
