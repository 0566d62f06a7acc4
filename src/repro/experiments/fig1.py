"""Experiment E1 — Figure 1: the atomicity-violation counterexample.

The paper opens with 5 servers and ``t = 2`` crash failures and shows
that *any* algorithm greedily completing operations in one round after
hearing from ``n − t = 3`` servers violates atomicity.  We replay the
composed schedule of executions ex3+ex4 against the greedy algorithm
(the ``"naive"`` row of :mod:`repro.storage.abd`):

1. ``wr = write(v)`` is invoked but its messages reach **only server 3**
   (the write is incomplete, as in ex3).
2. Reader ``r1`` reads; its messages to servers 1 and 2 are delayed, so
   it hears from ``Q2 = {3, 4, 5}`` and greedily returns ``v``.
3. Servers 3 and 5 crash (ex4).
4. Reader ``r2`` reads; it hears from ``Q3 = {1, 2, 4}`` — none of which
   ever saw ``v`` — and returns ⊥, *inverting* ``r1``'s read.

The atomicity checker must flag the read inversion.  The same schedule
against the Section 1.2 algorithm (4-server fast quorums, the
``"fastabd"`` protocol) stays atomic — that contrast is the whole point
of Figure 2.  Both replays are the *same* schedule: the sweep
:data:`GRID` has a single ``algorithm`` axis and its two cells differ
only in the protocol id (both rows speak one message vocabulary, so
the delay rule matches the same read message).
"""

from __future__ import annotations

from typing import Mapping

from repro.scenarios import (
    Crash,
    FaultPlan,
    Hold,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    labeled,
    payload_is,
)
from repro.storage.abd import SlotRead

NAIVE = "naive (3-of-5 fast)"
FASTABD = "section-1.2 (4-of-5)"


def _schedule(protocol: str, horizon: float) -> ScenarioSpec:
    """The adversarial Figure 1 schedule, parameterized by protocol."""
    return ScenarioSpec(
        protocol=protocol,
        readers=2,
        faults=FaultPlan(
            # ex4: servers 3 and 5 crash after r1's read completed.
            crashes=(Crash(3, 10.0), Crash(5, 10.0)),
            asynchrony=(
                # The write is incomplete: only server 3 ever receives it.
                Hold(src=("writer",), dst=(1, 2, 4, 5),
                     label="wr reaches only s3"),
                # r1's *first-round read* messages to servers 1, 2 delayed.
                Hold(src=("reader1",), dst=(1, 2),
                     payload=payload_is(SlotRead),
                     label="r1 cannot reach s1, s2"),
            ),
        ),
        workload=(
            Write(0.0, "v"),          # never completes (blocked quorum)
            Read(0.0, reader=0),      # r1, before the crashes
            Read(10.0, reader=1),     # r2, after the crashes
        ),
        horizon=horizon,
    )


def _build(point: Mapping) -> ScenarioSpec:
    protocol, horizon = point["algorithm"]
    return _schedule(protocol, horizon)


def _measure(point: Mapping, result) -> Mapping:
    r1, r2 = result.reads[0], result.reads[1]
    return {
        "verdict": result.atomicity.verdict,
        "r1_value": repr(r1.result),
        "r1_rounds": r1.rounds,
        "r2_value": repr(r2.result),
        "r2_rounds": r2.rounds,
    }


#: The E1 grid: one schedule, two algorithms.
GRID = SweepSpec(
    name="fig1",
    axes={
        "algorithm": (
            labeled(NAIVE, ("naive", 20.0)),
            labeled(FASTABD, ("fastabd", 40.0)),
        )
    },
    build=_build,
    measure=_measure,
)
