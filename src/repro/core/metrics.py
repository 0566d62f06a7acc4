"""Load and availability of quorum systems (Naor–Wool style).

The paper's concluding section lists "the load and availability of RQS"
as an open research direction; these metrics power the ablation bench
(experiment E13 in the README index).

* **Load** (:func:`system_load`): the minimum over access strategies of
  the maximum access probability of any element — computed *exactly* by
  the LP in :mod:`repro.core.strategy` (a :class:`~fractions.Fraction`
  is returned).  For the symmetric threshold systems the optimum equals
  ``(n − i)/n`` for ``Q_i`` families; for irregular explicit families it
  can undercut the load of the uniform strategy
  (:func:`repro.core.strategy.uniform_strategy`).
* **Availability** (:func:`failure_probability`): the probability that no
  quorum is fully alive when each element fails independently with
  probability ``p`` — computed exactly by enumerating the ``2^n``
  alive-sets over the union of the family, so it suits small universes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.core.strategy import optimal_single_load


def system_load(rqs: RefinedQuorumSystem, cls: int = 3) -> Fraction:
    """The exact load of the class-``cls`` quorum family.

    Solved as a linear program over exact rationals by
    :func:`repro.core.strategy.optimal_single_load` — never higher than
    the uniform strategy's load, and equal to ``(n − i)/n`` for the
    threshold constructions.
    """
    family = rqs.class_quorums(cls)
    if not family:
        raise ValueError(f"class {cls} has no quorums")
    return optimal_single_load(family)


def failure_probability(
    rqs: RefinedQuorumSystem, p: float, cls: int = 3
) -> float:
    """Probability that *no* class-``cls`` quorum is fully alive when each
    server fails independently with probability ``p``.

    Exact, via enumeration of failure patterns restricted to the union of
    the family (elements outside every quorum are irrelevant).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0,1], got {p}")
    family = rqs.class_quorums(cls)
    if not family:
        raise ValueError(f"class {cls} has no quorums")
    relevant = sorted(set().union(*family), key=repr)
    n = len(relevant)
    dead_probability = 0.0
    # Enumerate alive-subsets of the relevant universe.
    for alive_size in range(n + 1):
        for alive in combinations(relevant, alive_size):
            if rqs.contains_quorum(alive, cls):
                continue
            weight = (1 - p) ** alive_size * p ** (n - alive_size)
            dead_probability += weight
    return dead_probability


def availability(rqs: RefinedQuorumSystem, p: float, cls: int = 3) -> float:
    """``1 − failure_probability`` — chance some class-``cls`` quorum is
    fully alive under i.i.d. element failure probability ``p``."""
    return 1.0 - failure_probability(rqs, p, cls)


def best_case_latency_profile(
    rqs: RefinedQuorumSystem, p: float, latencies: Tuple[int, int, int]
) -> float:
    """Expected best-case latency when each server is up with prob. 1−p.

    ``latencies = (l1, l2, l3)`` are the class-1/2/3 best-case latencies
    (e.g. rounds ``(1, 2, 3)`` for storage, message delays ``(2, 3, 4)``
    for consensus).  The expectation conditions on *some* quorum being
    alive; returns ``float('inf')`` when even class 3 is never available.
    """
    l1, l2, l3 = latencies
    a1 = availability(rqs, p, cls=1) if rqs.qc1 else 0.0
    a2 = availability(rqs, p, cls=2) if rqs.qc2 else 0.0
    a3 = availability(rqs, p, cls=3)
    if a3 == 0.0:
        return float("inf")
    # P(best available class is 1/2/3):
    p1 = a1
    p2 = max(a2 - a1, 0.0)
    p3 = max(a3 - a2, 0.0)
    return (p1 * l1 + p2 * l2 + p3 * l3) / a3
