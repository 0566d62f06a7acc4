"""Tests for the quorum expression algebra and its RQS lift."""

from fractions import Fraction
from itertools import combinations

import pytest

from repro.core.algebra import (
    And,
    Node,
    Or,
    QuorumSystem,
    demo_grid_rqs,
    demo_grid_system,
)
from repro.errors import QuorumSystemError

a, b, c = Node("a"), Node("b"), Node("c")
d, e, f = Node("d"), Node("e"), Node("f")


def resilience(family, ground):
    """The largest ``r`` such that every ``r`` failures leave a quorum
    of ``family`` whole, by brute force over the ground set."""
    r = 0
    while r < len(ground) and all(
        any(not q & set(failed) for q in family)
        for failed in combinations(sorted(ground), r + 1)
    ):
        r += 1
    return r


class TestExpressions:
    def test_operator_sugar_builds_and_or(self):
        expr = a * b + c * d
        assert isinstance(expr, Or)
        assert all(isinstance(op, And) for op in expr.operands)
        assert expr.quorums() == (frozenset("ab"), frozenset("cd"))

    def test_flattening_keeps_one_level(self):
        expr = a * b * c
        assert isinstance(expr, And)
        assert len(expr.operands) == 3
        assert expr.quorums() == (frozenset("abc"),)

    def test_or_drops_dominated_quorums(self):
        # a alone dominates a*b: the family is the minimal antichain.
        expr = a + a * b
        assert expr.quorums() == (frozenset("a"),)

    def test_choose_enumerates_k_subsets(self):
        # 2-of-3 as a sum of products: exactly the three 2-subsets.
        expr = a * b + a * c + b * c
        assert expr.quorums() == (
            frozenset("ab"), frozenset("ac"), frozenset("bc"),
        )

    def test_str_round_trips_the_grammar(self):
        assert str(a * b * c + d * e * f) == "a*b*c + d*e*f"

    def test_node_rejects_non_positive_capacity(self):
        with pytest.raises(QuorumSystemError, match="positive"):
            Node("x", read_capacity=0)


class TestDuality:
    def test_and_dual_is_or(self):
        assert (a * b).dual().quorums() == (
            frozenset("a"), frozenset("b"),
        )

    def test_grid_dual_is_transversal_columns(self):
        # Dual of rows = one node per row (all 9 pairs).
        duals = (a * b * c + d * e * f).dual().quorums()
        assert len(duals) == 9
        assert all(len(q) == 2 for q in duals)

    def test_choose_dual_complements_k(self):
        # The dual of k-of-n is (n - k + 1)-of-n: 1-of-3 <-> 3-of-3 ...
        assert (a + b + c).dual().quorums() == (frozenset("abc"),)
        # ... and majority-of-3 (2-of-3) is self-dual.
        expr = a * b + a * c + b * c
        assert expr.dual().quorums() == expr.quorums()

    def test_double_dual_is_identity_on_families(self):
        expr = a * b + c * (d + e)
        assert expr.dual().dual().quorums() == expr.quorums()

    def test_every_dual_intersects_every_quorum(self):
        expr = a * b * c + d * e * f
        for q in expr.quorums():
            for t in expr.dual().quorums():
                assert q & t


class TestQuorumSystem:
    def test_missing_side_defaults_to_dual(self):
        system = QuorumSystem(reads=a * b + c)
        assert system.write_quorums() == (a * b + c).dual().quorums()

    def test_transversality_checked_eagerly(self):
        with pytest.raises(QuorumSystemError, match="transversal"):
            QuorumSystem(reads=a, writes=b)

    def test_conflicting_capacities_rejected(self):
        fast_a = Node("a", read_capacity=10)
        with pytest.raises(QuorumSystemError, match="conflicting"):
            QuorumSystem(reads=a * b, writes=fast_a + b)

    def test_needs_at_least_one_expression(self):
        with pytest.raises(QuorumSystemError, match="needs"):
            QuorumSystem()

    def test_capacities_materialize_as_fractions(self):
        system = demo_grid_system(heterogeneous=True)
        caps = system.read_capacities()
        assert caps["a"] == Fraction(10)
        assert caps["d"] == Fraction(2)

    def test_resilience_of_grid(self):
        system = demo_grid_system()
        ground = system.ground_set()
        # One failure per row kills both read quorums: read resilience 1.
        assert resilience(system.read_quorums(), ground) == 1
        # Writes (one node per row) survive any 2 failures, not 3.
        assert resilience(system.write_quorums(), ground) == 2

    def test_optimal_strategy_beats_uniform_on_hetero_grid(self):
        system = demo_grid_system(heterogeneous=True)
        fr = Fraction(1, 2)
        optimal, uniform = system.strategy(fr), system.uniform(fr)
        assert optimal.load < uniform.load
        assert optimal.capacity > uniform.capacity


class TestLift:
    def test_lifted_quorums_pairwise_intersect(self):
        family = demo_grid_system().lifted_quorums()
        for q1 in family:
            for q2 in family:
                assert q1 & q2

    def test_to_rqs_passes_property_check(self):
        # to_rqs validates on construction; P1 also holds directly.
        rqs = demo_grid_rqs()
        assert "P1" not in rqs.violated()

    def test_to_rqs_carries_capacities(self):
        rqs = demo_grid_rqs(heterogeneous=True)
        assert rqs.read_capacity["a"] == Fraction(10)
        assert rqs.write_capacity["d"] == Fraction(1)
        assert demo_grid_rqs(heterogeneous=False).read_capacity[
            "a"
        ] == Fraction(4)

    def test_to_rqs_keeps_directional_families(self):
        rqs = demo_grid_rqs()
        assert rqs.read_quorums == (frozenset("abc"), frozenset("def"))
        assert len(rqs.write_quorums) == 9
