"""Paper-claim drivers: every figure and theorem as a sweep grid.

Each module regenerates one exhibit of the paper (see
``docs/experiments.md`` for the full index): it declares a
:class:`~repro.scenarios.SweepSpec` grid literal — protocols × fault
plans × seeds, or an analytic parameter axis — plus build/measure hooks
whose cells carry the verdict and the numbers the paper states.  An
exhibit is its grid: :func:`~repro.scenarios.run_grid` runs it, and
``tests/experiments/test_experiments.py`` asserts the paper's claim on
the cells.

The two layer invariants both bite here: every execution goes through
``repro.scenarios`` (drivers build specs, never wire simulators by
hand), and every parameter study is a grid literal (drivers never
hand-roll protocol/seed loops).

=====================  ========================================================
module                 exhibit
=====================  ========================================================
``fig1``               E1 — Figure 1 atomicity-violation counterexample
``fig4``               E4 — Figure 4 Property-3 intuition executions
``storage_latency``    E5 — Theorem 9 storage staircase (1/2/3 rounds)
``stress``             E6/E9 — randomized adversity + GST liveness
``theorem3``           E7 — Figure 8 storage impossibility without P3
``consensus_latency``  E8 — Section 4.2 consensus staircase (2/3/4 delays)
``theorem6``           E10 — Figure 16 consensus agreement violation
``bounds``             E11 — tightness of the closed-form inequalities
``baselines``          E12 — RQS vs fast-ABD / ABD / Paxos / PBFT
``metrics_ablation``   E13 — load/availability ablation
``contention``         E14 — keyed-register contention sweep (per-key verdicts)
``capacity``           E16 — predicted vs measured strategy capacity
``batched``            E17 — batching never inflates the read tail
=====================  ========================================================

E15 / E18 / E19 and E17's events per op are claims about the simulator's
own scale and have no driver here: their specs are the labelled rows of
``benchmarks/bench_workload.py``, gated by ``tools/check_bench.py``
(``docs/experiments.md`` names the row and rule for each).

Shared helpers: :func:`~repro.experiments.builders.keyed_mix_spec`
builds the keyed-``RandomMix`` cells used by the contention and tail
grids and the workload bench, so the spec shape lives in exactly one
place.
"""

from repro.experiments.builders import DEFAULT_RQS, keyed_mix_spec

__all__ = ["DEFAULT_RQS", "keyed_mix_spec"]
