"""Experiment E4 — Figure 4: the Property-3 intuition executions.

Six servers under the *general* (non-threshold) adversary of Example 7
(``B = closure({{s1,s2}, {s3,s4}, {s2,s4}})``), with
``Q1 = {s2,s4,s5,s6}`` class 1 and ``Q2, Q'2`` class 2.  We replay the
figure's executions against the real RQS storage algorithm:

* **ex1** — s1 and s3 are down; a synchronous uncontended ``write(1)``
  completes in a single round through the class-1 quorum ``Q1``.
* **ex2/ex3** — the write reaches only ``{s1..s5}`` and is incomplete
  (the writer crashes before round 2); reader ``r1`` can only reach
  ``Q2 = {s1..s5}`` and must return 1 after **2 rounds** (the
  sophisticated round-1 write-back carrying ``Q2``'s id).
* **ex4/ex5** — afterwards ``s5`` crashes and the Byzantine pair
  ``B12 = {s1, s2}`` "forgets" round 2 of ``rd`` (it erases the quorum
  ids the write-back stored); reader ``r2``, reaching only
  ``Q'2 = {s1,s2,s3,s4,s6}``, must still return 1 — which is possible
  *only because* ``P3b(Q2, Q'2, B34)`` holds: the class-1 quorum
  witness ``s2 ∈ Q1 ∩ Q2 ∩ Q'2 \\ B34`` pins the value.

Both stages are cells of the sweep :data:`GRID` (one ``stage`` axis over
the RQS name ``"example7"``); the measure hook records each read's value
and rounds, and the claim — the figure's outcomes, both histories
atomic — is asserted on those cells.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Hold,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
)
from repro.storage.server import QuorumForgettingServer

_FORGERY_TIME = 12.0


def _ex1_spec() -> ScenarioSpec:
    """ex1: write(1) with s1, s3 down completes in one round."""
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs="example7",
        readers=1,
        faults=FaultPlan(crashes=(Crash("s1", 0.0), Crash("s3", 0.0))),
        workload=(Write(0.0, 1),),
    )


def _ex3_ex4_spec() -> ScenarioSpec:
    """The composed ex3 → ex4 schedule of Figure 4 as one scenario."""
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs="example7",
        readers=2,
        faults=FaultPlan(
            crashes=(
                # Incomplete write: the writer dies before round 2 at 2Δ.
                Crash("writer", 1.9),
                # ex4: s5 crashes once r1's read has completed.
                Crash("s5", _FORGERY_TIME),
            ),
            byzantine=tuple(
                ByzantineRole(sid, partial(
                    QuorumForgettingServer, trigger_time=_FORGERY_TIME
                ))
                for sid in ("s1", "s2")
            ),
            asynchrony=(
                # The slow write never reaches s6 (ex3).
                Hold(src=("writer",), dst=("s6",), label="wr misses s6"),
                # r1 only communicates with Q2 = {s1..s5}.
                Hold(src=("reader1",), dst=("s6",), label="r1 misses s6"),
            ),
        ),
        workload=(
            Write(0.0, 1),             # never completes (writer crashes)
            Read(2.0, reader=0),       # ex3: rd through Q2
            Read(_FORGERY_TIME, reader=1),  # ex4: rd' through Q'2
        ),
        horizon=60.0,
    )


def _build(point: Mapping) -> ScenarioSpec:
    return _ex1_spec() if point["stage"] == "ex1" else _ex3_ex4_spec()


def _measure(point: Mapping, result) -> Mapping:
    metrics = {"verdict": result.atomicity.verdict}
    if point["stage"] == "ex1":
        metrics["write_rounds"] = result.write().rounds
    else:
        r1, r2 = result.reads[0], result.reads[1]
        metrics.update(
            ex3_value=repr(r1.result), ex3_rounds=r1.rounds,
            ex4_value=repr(r2.result), ex4_rounds=r2.rounds,
        )
    return metrics


#: The E4 grid: the figure's two stages over the Example 7 adversary.
GRID = SweepSpec(
    name="fig4",
    axes={"stage": ("ex1", "ex3+ex4")},
    build=_build,
    measure=_measure,
)
