"""Experiment E11 — tightness of the Example 5/6 inequalities.

The paper gives closed-form conditions for the threshold family
``RQS = Q_t``, ``QC2 = Q_r``, ``QC1 = Q_q`` under ``B_k``:

* Property 1  ⇔  ``n > 2t + k``
* Property 2  ⇔  ``n > t + 2k + 2q``
* Property 3  ⇔  ``n > t + r + k + min(k, q)``

This sweep brute-force-validates every parameter point and reports any
mismatch between the formulas and the explicit property checks — there
must be none, in *both* directions (the conditions are necessary and
sufficient, i.e. tight).

It is an *analytic* sweep: :func:`bounds_grid` enumerates the parameter
space as one labeled axis and the ``evaluate`` hook checks each point in
closed form — no scenario execution involved.  The exhibit decides, it
does not explain: a point asks only which properties fail
(:meth:`~repro.core.rqs.RefinedQuorumSystem.violated`), so no witness of
a violation is built; ``violations()`` names one for a reader who wants
to see why.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Tuple

from repro.core.constructions import (
    threshold_rqs,
    threshold_rqs_predicted_properties,
)
from repro.scenarios import SweepSpec, labeled


def parameter_space(max_n: int) -> Iterator[Tuple[int, int, int, int, int]]:
    for n in range(3, max_n + 1):
        for t in range(1, n):
            for k in range(0, t + 1):
                for q in range(0, t + 1):
                    for r in range(q, t + 1):
                        yield n, t, k, q, r


def _evaluate_point(point: Mapping) -> Mapping:
    n, t, k, q, r = point["params"]
    rqs = threshold_rqs(n, t, k, q, r, validate=False)
    violated = rqs.violated()
    actual = tuple(name not in violated for name in ("P1", "P2", "P3"))
    predicted = threshold_rqs_predicted_properties(n, t, k, q, r)
    match = actual == predicted
    return {
        "verdict": "match" if match else "MISMATCH",
        "match": match,
        "boundary": _on_boundary(n, t, k, q, r),
        "params": list(point["params"]),
    }


def bounds_grid(max_n: int = 7) -> SweepSpec:
    """The E11 grid: every (n, t, k, q, r) point as one analytic cell."""
    return SweepSpec(
        name="threshold-bounds",
        axes={
            "params": tuple(
                labeled(f"n={n},t={t},k={k},q={q},r={r}", (n, t, k, q, r))
                for n, t, k, q, r in parameter_space(max_n)
            )
        },
        evaluate=_evaluate_point,
    )


def _on_boundary(n: int, t: int, k: int, q: int, r: int) -> bool:
    """Exactly one short of validity on at least one property — the
    points that prove necessity."""
    return (
        n == 2 * t + k + 1
        or n == t + 2 * k + 2 * q + 1
        or n == t + r + k + min(k, q) + 1
    )
