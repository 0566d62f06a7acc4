"""Tests for the RefinedQuorumSystem container."""

from itertools import combinations

import pytest

from repro.core.adversary import ExplicitAdversary, ThresholdAdversary
from repro.core.constructions import (
    example7_rqs,
    figure3_rqs,
    threshold_rqs,
)
from repro.core.rqs import RefinedQuorumSystem, describe
from repro.errors import PropertyViolation, QuorumSystemError

SERVERS = tuple(range(1, 6))


def crash_adversary():
    return ExplicitAdversary(SERVERS)


class TestShapeValidation:
    def test_requires_a_quorum(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(crash_adversary(), [])

    def test_rejects_empty_quorum(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(crash_adversary(), [set()])

    def test_rejects_quorum_outside_ground(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(crash_adversary(), [{1, 99}])

    def test_qc2_must_be_subfamily(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(
                crash_adversary(), [{1, 2, 3}], qc1=(), qc2=[{3, 4, 5}]
            )

    def test_qc1_must_be_within_qc2(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(
                crash_adversary(),
                [{1, 2, 3}, {3, 4, 5}],
                qc1=[{1, 2, 3}],
                qc2=[{3, 4, 5}],
            )

    def test_default_qc2_equals_qc1(self):
        rqs = threshold_rqs(5, 1, 0, 1, 1)
        flat = RefinedQuorumSystem(
            rqs.adversary, rqs.quorums, qc1=rqs.qc1
        )
        assert flat.qc2 == flat.qc1


class TestValidation:
    def test_eager_validation_raises_with_witness(self):
        adv = ThresholdAdversary(SERVERS, 1)
        with pytest.raises(PropertyViolation) as exc:
            RefinedQuorumSystem(adv, [{1, 2, 3}, {3, 4, 5}])
        assert exc.value.property_name == "P1"

    def test_deferred_validation_collects_violations(self):
        adv = ThresholdAdversary(SERVERS, 1)
        rqs = RefinedQuorumSystem(
            adv, [{1, 2, 3}, {3, 4, 5}], validate=False
        )
        assert not rqs.is_valid()
        names = [name for name, _ in rqs.violations()]
        assert "P1" in names

    def test_valid_system_reports_no_violations(self):
        assert figure3_rqs().violations() == ()


class TestQuorumClasses:
    def test_classes_are_nested(self):
        rqs = figure3_rqs()
        assert set(rqs.qc1) <= set(rqs.qc2) <= set(rqs.quorums)

    def test_quorum_class_returns_best(self):
        rqs = figure3_rqs()
        for quorum in rqs.qc1:
            assert rqs.quorum_class(quorum) == 1

    def test_quorum_class_rejects_non_quorum(self):
        rqs = figure3_rqs()
        with pytest.raises(QuorumSystemError):
            rqs.quorum_class({1})

    def test_quorums_of_exact_class(self):
        rqs = figure3_rqs()
        exact = rqs.quorums_of_exact_class(2)
        assert all(rqs.quorum_class(q) == 2 for q in exact)
        assert not set(exact) & set(rqs.qc1)

    def test_class_quorums_3_is_all(self):
        rqs = example7_rqs()
        assert rqs.class_quorums(3) == rqs.quorums
        with pytest.raises(ValueError):
            rqs.class_quorums(4)


class TestSelectionHelpers:
    def test_responding_quorums(self):
        rqs = example7_rqs()
        responders = {"s1", "s2", "s3", "s4", "s5"}
        assert rqs.responding_quorums(responders, cls=2)
        assert not rqs.responding_quorums({"s1", "s2"}, cls=3)

    def test_iteration_and_len(self):
        rqs = example7_rqs()
        assert len(rqs) == 3
        assert set(iter(rqs)) == set(rqs.quorums)


class TestQuorumIndex:
    """The bitmask tables answer exactly what the frozenset scans do."""

    SYSTEMS = (
        lambda: threshold_rqs(5, 1, 1, 0, 1),
        lambda: threshold_rqs(6, 2, 0, 1, 2),
        example7_rqs,
        figure3_rqs,
    )

    def subsets(self, rqs):
        servers = sorted(rqs.ground_set, key=repr)
        for size in range(len(servers) + 1):
            for combo in combinations(servers, size):
                yield frozenset(combo)

    def test_contains_quorum_matches_the_scan_on_every_subset(self):
        for build in self.SYSTEMS:
            rqs = build()
            for subset in self.subsets(rqs):
                for cls in (1, 2, 3):
                    family = rqs.class_quorums(cls)
                    assert rqs.contains_quorum(subset, cls) == any(
                        q <= subset for q in family
                    )
                    assert rqs.responding_quorums(subset, cls) == tuple(
                        q for q in family if q <= subset
                    )

    def test_fits_matches_the_brute_force_scan_on_every_mask(self):
        """The size floor never answers for the scan: on every mask of
        ``2^|S|``, for every class — an empty one included (the
        unvalidated family below has no class-1 or class-2 quorum) —
        ``fits`` is "some mask of ``masks[cls]`` lies inside"."""
        unvalidated = RefinedQuorumSystem(
            ThresholdAdversary(SERVERS, 1), [{1, 2, 3}, {3, 4, 5}, {2, 5}],
            validate=False,
        )
        assert not unvalidated.is_valid()
        assert unvalidated.qc1 == unvalidated.qc2 == ()
        floored = 0
        for build in self.SYSTEMS + (lambda: unvalidated,):
            index = build().index
            for mask in range(index.full + 1):
                for cls in (1, 2, 3):
                    quorums = index.masks[cls]
                    assert index.fits(mask, cls) == any(
                        q & mask == q for q in quorums
                    ), (mask, cls)
                    floored += mask.bit_count() < min(
                        (q.bit_count() for q in quorums), default=99
                    )
        assert floored > 0

    def test_all_basic_is_property1_with_q_equal_to_q_prime(self):
        """Every validated system has only basic quorums; an unvalidated
        family whose smallest quorums fit in ``B`` has not — and the
        flag leaves the ``is_basic`` memo as it was."""
        unsound = threshold_rqs(5, 3, 2, 0, 1, validate=False)
        for build in self.SYSTEMS + (lambda: unsound,):
            rqs = build()
            index = rqs.index
            expected = all(rqs.is_basic(q) for q in rqs.quorums)
            assert index.all_basic == expected
            assert index._basic == {}
        assert not unsound.index.all_basic

    def test_enumerating_subsets_leaves_nothing_on_the_system(self):
        """Quorum containment is a scan, not a memo: an availability
        sweep over all ``2^|S|`` alive-sets (``failure_probability``)
        must not grow what every finished run keeps alive."""
        from repro.core import metrics

        rqs = threshold_rqs(8, 3, 1, 1, 2)
        index = rqs.index
        for cls in (1, 2, 3):
            metrics.failure_probability(rqs, 0.1, cls)
        kept = {
            name: getattr(index, name)
            for name in index.__slots__
            if name.startswith("_") and isinstance(getattr(index, name), dict)
        }
        assert kept and not any(kept.values()), kept

    def test_processes_outside_the_ground_set_are_ignored(self):
        rqs = example7_rqs()
        quorum = set(rqs.quorums[0])
        assert rqs.contains_quorum(quorum | {"learner", 7})
        assert not rqs.contains_quorum({"learner", 7})

    def test_masks_round_trip_and_is_basic_agrees(self):
        for build in self.SYSTEMS:
            rqs = build()
            index = rqs.index
            assert index.members(index.full) == rqs.ground_set
            for subset in self.subsets(rqs):
                mask = index.mask(subset)
                assert index.members(mask) == subset
                assert index.is_basic(mask) == rqs.is_basic(subset)
                assert [index.members(q) for q in index.responding(mask)] == [
                    q for q in rqs.quorums if q <= subset
                ]

    def test_newly_responding_is_the_fitting_quorums_through_new(self):
        """``newly_responding(mask, new)`` = the quorums inside ``mask``
        that meet ``new``, in class order — for one new server (the
        per-bit table) and for several (the class scan)."""
        for build in self.SYSTEMS:
            rqs = build()
            index = rqs.index
            for subset in self.subsets(rqs):
                mask = index.mask(subset)
                members = sorted(subset, key=repr)
                parts = [frozenset({m}) for m in members]
                parts += [frozenset(members[:2]), frozenset(members[1:]),
                          subset]
                for cls in (1, 2, 3):
                    for new in filter(None, parts):
                        got = index.newly_responding(
                            mask, index.mask(new), cls
                        )
                        assert [index.members(q) for q in got] == [
                            q for q in rqs.class_quorums(cls)
                            if q <= subset and q & new
                        ]
            # One small tuple per (class, server) is all that is kept.
            assert len(index._through) <= 3 * len(rqs.ground_set)

    def test_servers_is_the_repr_sorted_ground_set(self):
        for build in self.SYSTEMS:
            rqs = build()
            assert rqs.servers == tuple(sorted(rqs.ground_set, key=repr))
            assert rqs.servers is rqs.servers
            assert [rqs.index.bit[s] for s in rqs.servers] == [
                1 << i for i in range(len(rqs.servers))
            ]

    def test_class_lookups_come_from_the_index(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        assert rqs.index is rqs.index
        for quorum in rqs.quorums:
            expected = 1 if quorum in rqs.qc1 else 2 if quorum in rqs.qc2 else 3
            assert rqs.quorum_class(quorum) == expected
            assert rqs.is_quorum(quorum)
        assert not rqs.is_quorum({1, 2, 3})
        assert [len(rqs.quorums_of_exact_class(c)) for c in (1, 2, 3)] == [
            9, 28, 56
        ]

    def test_meets_are_the_minimal_distinct_intersections(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        index = rqs.index

        def minimal(sets):
            sets = {s for s in sets if s}
            return {s for s in sets if not any(t < s for t in sets)}

        for cls in (1, 2, 3):
            expected = minimal(
                q1 & qr for q1 in rqs.qc1 for qr in rqs.class_quorums(cls)
            )
            got = [index.members(m) for m in index.class1_meets(cls)]
            assert len(got) == len(set(got)) and set(got) == expected
            q2 = rqs.qc2[-1]
            expected = minimal(qr & q2 for qr in rqs.class_quorums(cls))
            got = [index.members(m) for m in index.meets(cls, index.mask(q2))]
            assert len(got) == len(set(got)) and set(got) == expected
        # Example 6: 81 and 837 (Q1, QR) pairs shrink to 28 and 70 sets.
        assert len(rqs.qc1) ** 2 == 81 and len(index.class1_meets(1)) == 28
        assert len(rqs.qc1) * len(rqs.quorums) == 837
        assert len(index.class1_meets(3)) == 70


def test_describe_mentions_classes():
    text = describe(figure3_rqs())
    assert "class 1" in text and "valid" in text
