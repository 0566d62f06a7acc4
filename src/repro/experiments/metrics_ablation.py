"""Experiment E13 — load/availability ablation (Section 6 directions).

The paper lists "the load and availability of RQS" as an open direction.
This ablation quantifies the price of fast quorum classes on the
Example 6 threshold family: class-1 quorums are larger, so they carry a
higher load and die sooner as the per-server failure probability grows —
the crossover where the *expected best-case latency* of the refined
system stops improving on a flat (class-3 only) system.

Both studies are analytic sweeps: :func:`ablation_grid` sweeps the
per-server failure probability, :func:`search_grid` sweeps universe
sizes for general-adversary RQS discovery.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from repro.core.adversary import ExplicitAdversary
from repro.core.constructions import threshold_rqs
from repro.core.metrics import (
    availability,
    best_case_latency_profile,
    system_load,
)
from repro.core.rqs import RefinedQuorumSystem
from repro.core.search import search_rqs
from repro.scenarios import SweepSpec, labeled


def default_rqs() -> RefinedQuorumSystem:
    return threshold_rqs(8, 3, 1, 1, 2)


def _ablation_cell(point: Mapping) -> Mapping:
    rqs = default_rqs()
    p = point["p"]
    return {
        # system_load returns an exact Fraction; cells carry floats.
        "load_class1": float(system_load(rqs, cls=1)),
        "load_class3": float(system_load(rqs, cls=3)),
        "avail_class1": availability(rqs, p, cls=1),
        "avail_class2": availability(rqs, p, cls=2),
        "avail_class3": availability(rqs, p, cls=3),
        "expected_latency": best_case_latency_profile(
            rqs, p, point["latencies"]
        ),
    }


def ablation_grid(
    probabilities: Sequence[float],
    latencies: Tuple[int, int, int] = (1, 2, 3),
) -> SweepSpec:
    """The E13 grid: one analytic cell per failure probability."""
    return SweepSpec(
        name="metrics-ablation",
        axes={
            "p": tuple(probabilities),
            "latencies": (labeled(repr(latencies), latencies),),
        },
        evaluate=_ablation_cell,
    )


def _search_cell(point: Mapping) -> Mapping:
    n = point["n"]
    servers = tuple(range(1, n + 1))
    # a lightly-irregular adversary: one "fragile pair" plus singletons
    adversary = ExplicitAdversary(
        servers, [{1, 2}] + [{i} for i in servers]
    )
    rqs = search_rqs(adversary, min_quorum_size=max(2, n - 2))
    return {"quorums": len(rqs.quorums), "class1": len(rqs.qc1)}


def search_grid(sizes: Sequence[int]) -> SweepSpec:
    """RQS-discovery cost grid: one analytic cell per universe size."""
    return SweepSpec(
        name="rqs-search-cost",
        axes={"n": tuple(sizes)},
        evaluate=_search_cell,
    )
