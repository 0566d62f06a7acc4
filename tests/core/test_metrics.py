"""Tests for quorum-system load and availability metrics."""

import math
from fractions import Fraction

import pytest

from repro.core.constructions import threshold_rqs
from repro.core import metrics
from repro.core.strategy import peak_load, uniform_distribution, uniform_strategy


class TestLoad:
    def test_threshold_load_is_quorum_fraction(self):
        # Q_1 family over 5 servers: minimal quorums have 4 elements;
        # uniform strategy over them gives load 4/5.
        rqs = threshold_rqs(5, 1, 0, 0, 1)
        assert metrics.system_load(rqs, cls=3) == pytest.approx(0.8)

    def test_class1_load_at_least_class3_load(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        assert metrics.system_load(rqs, cls=1) >= metrics.system_load(
            rqs, cls=3
        )

    def test_empty_class_rejected(self):
        rqs = threshold_rqs(5, 1, 0, 0, 1)
        flat = type(rqs)(
            rqs.adversary, rqs.quorums, qc1=(), qc2=(), validate=False
        )
        with pytest.raises(ValueError):
            metrics.system_load(flat, cls=1)

    def test_uniform_load_counts_per_element_mass(self):
        quorums = (frozenset({1, 2}), frozenset({2, 3}))
        weights = uniform_distribution(quorums)
        assert peak_load(weights, weights, Fraction(1, 2)) == 1
        assert uniform_strategy(quorums).load == 1

    def test_uniform_weights_are_exact_and_sum_to_one(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        weights = uniform_strategy(rqs.quorums).read_weights
        assert all(isinstance(w, Fraction) for _, w in weights)
        assert sum(w for _, w in weights) == Fraction(1)

    def test_exact_load_never_above_uniform(self):
        # The LP optimum is over all strategies — it can only be lower
        # than or equal to the uniform strategy's load.
        for args in ((5, 1, 0, 0, 1), (8, 3, 1, 1, 2), (6, 2, 1, 0, 1)):
            rqs = threshold_rqs(*args)
            for cls in (1, 3):
                family = rqs.class_quorums(cls)
                assert metrics.system_load(rqs, cls=cls) <= (
                    uniform_strategy(family).load
                )

    def test_threshold_load_closed_form(self):
        # Symmetric (n-i)-of-n families: the exact load is (n-i)/n.
        cases = (
            (threshold_rqs(5, 1, 0, 0, 1), 3, Fraction(4, 5)),
            (threshold_rqs(8, 3, 1, 1, 2), 3, Fraction(5, 8)),
            (threshold_rqs(8, 3, 1, 1, 2), 1, Fraction(7, 8)),
        )
        for rqs, cls, expected in cases:
            assert metrics.system_load(rqs, cls=cls) == expected

    def test_exact_load_is_fraction(self):
        rqs = threshold_rqs(5, 1, 0, 0, 1)
        assert isinstance(metrics.system_load(rqs, cls=3), Fraction)


class TestAvailability:
    def test_p_zero_is_fully_available(self):
        rqs = threshold_rqs(5, 2, 0, 0, 2)
        assert metrics.availability(rqs, 0.0) == pytest.approx(1.0)

    def test_p_one_is_never_available(self):
        rqs = threshold_rqs(5, 2, 0, 0, 2)
        assert metrics.availability(rqs, 1.0) == pytest.approx(0.0)

    def test_matches_binomial_for_threshold_family(self):
        # Q_t family alive iff at most t of n servers dead.
        rqs = threshold_rqs(5, 2, 0, 0, 2)
        p = 0.2
        expected = sum(
            math.comb(5, dead) * p**dead * (1 - p) ** (5 - dead)
            for dead in range(0, 3)
        )
        assert metrics.availability(rqs, p) == pytest.approx(expected)

    def test_rejects_bad_probability(self):
        rqs = threshold_rqs(5, 2, 0, 0, 2)
        with pytest.raises(ValueError):
            metrics.failure_probability(rqs, 1.5)

    def test_monotone_in_p(self):
        rqs = threshold_rqs(6, 2, 1, 0, 1)
        values = [metrics.availability(rqs, p) for p in (0.0, 0.1, 0.3, 0.6)]
        assert values == sorted(values, reverse=True)


class TestLatencyProfile:
    def test_profile_at_zero_failure_is_best_class(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        assert metrics.best_case_latency_profile(
            rqs, 0.0, (1, 2, 3)
        ) == pytest.approx(1.0)

    def test_profile_degrades_with_p(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        low = metrics.best_case_latency_profile(rqs, 0.05, (1, 2, 3))
        high = metrics.best_case_latency_profile(rqs, 0.3, (1, 2, 3))
        assert high > low >= 1.0

    def test_profile_infinite_when_nothing_alive(self):
        rqs = threshold_rqs(3, 1, 0, 0, 1)
        assert metrics.best_case_latency_profile(
            rqs, 1.0, (1, 2, 3)
        ) == float("inf")
