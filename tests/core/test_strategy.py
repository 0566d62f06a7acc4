"""Tests for the exact strategy engine (LP, distributions, selectors)."""

import pickle
import random
from fractions import Fraction

import pytest

from repro.core.algebra import Node, QuorumSystem
from repro.core.strategy import (
    QuorumSelector,
    Strategy,
    optimal_single_load,
    optimal_strategy,
    peak_load,
    selector_seed,
    simplex_minimize,
    uniform_distribution,
    uniform_strategy,
)
from repro.errors import QuorumSystemError

MAJORITY3 = (frozenset("ab"), frozenset("bc"), frozenset("ac"))
GRID_READS = (frozenset("abc"), frozenset("def"))


class TestSimplex:
    def test_basic_minimum(self):
        # min x + y s.t. x + y >= 1 (i.e. -x - y <= -1), x,y >= 0
        value, solution = simplex_minimize(
            [Fraction(1), Fraction(1)],
            [[Fraction(-1), Fraction(-1)]],
            [Fraction(-1)],
            [], [],
        )
        assert value == 1
        assert sum(solution) == 1

    def test_equality_constraints(self):
        # min 2x + 3y s.t. x + y = 1 -> all mass on x.
        value, solution = simplex_minimize(
            [Fraction(2), Fraction(3)],
            [], [],
            [[Fraction(1), Fraction(1)]],
            [Fraction(1)],
        )
        assert value == 2
        assert solution == [Fraction(1), Fraction(0)]

    def test_infeasible_raises(self):
        # x = 1 and x = 2 simultaneously.
        with pytest.raises(QuorumSystemError, match="infeasible"):
            simplex_minimize(
                [Fraction(1)],
                [], [],
                [[Fraction(1)], [Fraction(1)]],
                [Fraction(1), Fraction(2)],
            )

    def test_unbounded_raises(self):
        # min -x with no upper bound on x.
        with pytest.raises(QuorumSystemError, match="unbounded"):
            simplex_minimize([Fraction(-1)], [], [], [], [])

    def test_exactness_no_float_noise(self):
        # 1/3 + 1/3 + 1/3 == 1 exactly — the reason for Fractions.
        value, solution = simplex_minimize(
            [Fraction(1)] * 3,
            [],
            [],
            [[Fraction(1)] * 3],
            [Fraction(1)],
        )
        assert sum(solution) == Fraction(1)
        assert value == Fraction(1)


class TestDistributions:
    def test_uniform_weights_sum_exactly_one(self):
        weights = uniform_distribution(MAJORITY3)
        assert sum(w for _, w in weights) == Fraction(1)
        assert all(w == Fraction(1, 3) for _, w in weights)

    def test_strategy_validates_sum(self):
        with pytest.raises(QuorumSystemError, match="sums to"):
            Strategy(
                read_weights=((frozenset("a"), Fraction(1, 2)),),
                write_weights=((frozenset("a"), Fraction(1)),),
            )

    def test_strategy_rejects_float_weights(self):
        with pytest.raises(QuorumSystemError, match="not an exact"):
            Strategy(
                read_weights=((frozenset("a"), 1.0),),
                write_weights=((frozenset("a"), Fraction(1)),),
            )

    def test_json_round_trip_exact(self):
        strategy = optimal_strategy(
            GRID_READS,
            read_fraction=Fraction(1, 3),
            read_capacity={"a": 10, "d": Fraction(1, 2)},
        )
        restored = Strategy.from_json(strategy.to_json())
        assert restored == strategy
        assert restored.load == strategy.load
        assert restored.read_fraction == Fraction(1, 3)


class TestOptimalStrategy:
    def test_majority_load_is_two_thirds(self):
        # Naor-Wool: majority over 3 nodes has optimal load 2/3.
        strategy = optimal_strategy(MAJORITY3, read_fraction=1)
        assert strategy.load == Fraction(2, 3)
        assert strategy.capacity == Fraction(3, 2)

    def test_never_above_uniform(self):
        for fr in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            opt = optimal_strategy(GRID_READS, MAJORITY3, read_fraction=fr)
            uni = uniform_strategy(GRID_READS, MAJORITY3, read_fraction=fr)
            assert opt.load <= uni.load

    def test_capacities_shift_mass_to_fast_row(self):
        strategy = optimal_strategy(
            GRID_READS,
            read_fraction=1,
            read_capacity={"a": 10, "b": 10, "c": 10},
        )
        weights = dict(strategy.read_weights)
        assert weights[frozenset("abc")] > weights[frozenset("def")]

    def test_load_matches_peak_load_recomputation(self):
        strategy = optimal_strategy(
            GRID_READS, MAJORITY3, read_fraction=Fraction(2, 5)
        )
        assert strategy.load == peak_load(
            strategy.read_weights,
            strategy.write_weights,
            Fraction(2, 5),
        )

    def test_single_load_threshold_closed_form(self):
        # Threshold family (all (n-i)-subsets of n): load (n-i)/n.
        import itertools

        n, i = 5, 2
        ground = list(range(n))
        family = [
            frozenset(q) for q in itertools.combinations(ground, n - i)
        ]
        assert optimal_single_load(family) == Fraction(n - i, n)

    def test_strategy_is_picklable(self):
        strategy = optimal_strategy(GRID_READS)
        assert pickle.loads(pickle.dumps(strategy)) == strategy


class TestSelector:
    def test_seed_is_dedicated_stream(self):
        # The strategy stream never collides with itself across clients.
        assert selector_seed(0, "w1") != selector_seed(0, "reader1")
        assert selector_seed(0, "w1") != selector_seed(1, "w1")

    def test_draws_deterministic_per_seed(self):
        strategy = uniform_strategy(MAJORITY3)
        first = QuorumSelector(strategy, seed=7, pid="w1")
        second = QuorumSelector(strategy, seed=7, pid="w1")
        draws = [first.next_read() for _ in range(20)]
        assert draws == [second.next_read() for _ in range(20)]

    def test_draws_respect_support(self):
        strategy = optimal_strategy(
            GRID_READS,
            read_fraction=1,
            read_capacity={"a": 100, "b": 100, "c": 100},
        )
        support = {q for q, w in strategy.read_weights if w > 0}
        rng = random.Random(3)
        for _ in range(50):
            assert strategy.draw_read(rng) in support

    def test_degenerate_distribution_always_same_quorum(self):
        strategy = Strategy(
            read_weights=((frozenset("ab"), Fraction(1)),),
            write_weights=((frozenset("ab"), Fraction(1)),),
        )
        rng = random.Random(0)
        assert all(
            strategy.draw_read(rng) == frozenset("ab") for _ in range(10)
        )


class TestQuoracleTutorial:
    """An oracle from outside the repo: the numbers quoracle's published
    tutorial prints for the 2×3 grid ``a*b*c + d*e*f`` (SNIPPETS.md,
    Snippet 2), as the exact rationals they round from.  The capacity
    gate compares ``predicted_load`` / ``predicted_capacity`` exactly
    against a committed file; this is what vouches for the engine that
    wrote it."""

    @staticmethod
    def grid(read=(1, 1), write=(1, 1)):
        # The tutorial alternates node capacities: a, c, e / b, d, f.
        a, b, c, d, e, f = (
            Node(name, read_capacity=read[i % 2], write_capacity=write[i % 2])
            for i, name in enumerate("abcdef")
        )
        return QuorumSystem(reads=a * b * c + d * e * f)

    def test_load_by_read_fraction(self):
        grid = self.grid()
        expected = {                      # the tutorial prints:
            Fraction(3, 4): Fraction(11, 24),  # 0.458
            Fraction(0): Fraction(1, 3),       # 0.333
            Fraction(1, 2): Fraction(5, 12),   # 0.416
            Fraction(1): Fraction(1, 2),       # 0.5
            Fraction(1, 4): Fraction(3, 8),    # 0.375
        }
        assert {fr: grid.load(fr) for fr in expected} == expected

    def test_resilience(self):
        grid = self.grid()
        assert (grid.read_resilience(), grid.write_resilience(),
                grid.resilience()) == (1, 2, 1)

    def test_capacity_with_read_and_write_capacities(self):
        grid = self.grid(read=(10_000, 5_000), write=(1_000, 500))
        assert grid.capacity(Fraction(1)) == 10_000
        assert grid.capacity(Fraction(1, 2)) == Fraction(90_000, 23)  # 3913
        assert grid.capacity(Fraction(0)) == 2_000

    def test_capacity_with_one_capacity_per_node(self):
        grid = self.grid(read=(1_000, 500), write=(1_000, 500))
        assert grid.load(Fraction(3, 4)) == Fraction(3, 4000)      # 0.00075
        assert grid.capacity(Fraction(3, 4)) == Fraction(4000, 3)  # 1333
