"""Tests for the quorum expression algebra and its RQS lift."""

from fractions import Fraction

import pytest

from repro.core.algebra import (
    And,
    Choose,
    Node,
    Or,
    QuorumSystem,
    choose,
    demo_grid_rqs,
    demo_grid_system,
    majority,
)
from repro.errors import QuorumSystemError

a, b, c = Node("a"), Node("b"), Node("c")
d, e, f = Node("d"), Node("e"), Node("f")


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
        expr = Choose(2, a, b, c)
        assert expr.quorums() == (
            frozenset("ab"), frozenset("ac"), frozenset("bc"),
        )

    def test_majority_helper(self):
        expr = majority([a, b, c])
        assert expr.k == 2
        assert expr.quorums() == choose(2, [a, b, c]).quorums()

    def test_str_round_trips_the_grammar(self):
        assert str(a * b * c + d * e * f) == "a*b*c + d*e*f"
        assert str(Choose(2, a, b, c)) == "choose(2, [a, b, c])"

    def test_node_rejects_non_positive_capacity(self):
        with pytest.raises(QuorumSystemError, match="positive"):
            Node("x", read_capacity=0)

    def test_choose_k_out_of_range(self):
        with pytest.raises(QuorumSystemError, match="out of range"):
            Choose(4, a, b, c)


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
        expr = Choose(2, a, b, c)
        assert expr.dual().k == 2  # n - k + 1 = 3 - 2 + 1
        # Self-dual: majority-of-3.
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
        # Reads survive any 2 failures only if a full row remains: one
        # node from each row kills both rows' complements? No — one
        # failure per row kills both read quorums, so read resilience 1.
        assert system.read_resilience() == 1
        # Writes (one node per row) survive any 2 failures within a row.
        assert system.write_resilience() == 2
        assert system.resilience() == 1

    def test_optimal_strategy_beats_uniform_on_hetero_grid(self):
        system = demo_grid_system(heterogeneous=True)
        fr = Fraction(1, 2)
        assert system.load(fr) < system.uniform(fr).load
        assert system.capacity(fr) > system.uniform(fr).capacity


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
