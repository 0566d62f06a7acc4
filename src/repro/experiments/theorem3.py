"""Experiment E7 — Figure 8: the Theorem 3 impossibility construction.

Theorem 3: no ``(Q(3), B)``-atomic storage can be both ``(1, Q(1))``-fast
and ``(2, Q(2))``-fast when Property 3 fails.  We mechanize the proof's
executions against the *real* RQS storage algorithm configured with a
quorum family that satisfies Properties 1-2 but **violates Property 3**
(the Example 6 instance ``n=8, t=3, k=1, q=1, r=3``:
``n > 2t+k`` ✓, ``n > t+2k+2q`` ✓, but ``n = t+r+k+min(k,q)`` ✗).

From a concrete negation witness ``(Q1, Q2, Q, B'1, B2)`` with
``Q2∩Q \\ B'1 = B2 ∈ B`` and ``Q1∩Q2∩Q \\ B'1 = ∅`` we stage:

* **ex''2** — ``wr1 = write(v1)`` reaches ``Q2`` in round 1 but only
  ``Q1 ∩ Q2`` in round 2, then the writer crashes; reader ``r1``
  (cut off from ``S \\ Q1``) returns ``v1`` in **one round** — the
  fast path any ``(1,Q(1))``-fast algorithm must take.
* **ex4** — the Byzantine set ``B1`` wipes its state to σ0; reader
  ``r2`` (cut off from ``S \\ Q``) completes, and whatever it returns is
  wrong: ``v1`` would be fabricated in the indistinguishable **ex5**
  (where nothing was ever written and ``B2`` forges σ1), while ⊥ inverts
  ``r1``'s read in ex4.

The driver is the two-cell sweep :data:`GRID` — ex''2+ex4 *and* ex5, two
scenario specs differing only in workload and forged state.  The claim
is asserted on its cells: the two runs are indistinguishable to ``r2``
(same output, read from the same replies — so the cells run at
``TraceLevel.FULL``, the one level that logs messages), and the checker
finds the atomicity violation.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Mapping, Tuple

from repro.core.properties import P3Witness, check_property3
from repro.core.rqs import RefinedQuorumSystem
from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Hold,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    labeled,
    resolve_rqs,
)
from repro.storage.history import History
from repro.storage.messages import WR
from repro.storage.server import ForgetfulServer

BROKEN_RQS = "example6-broken-p3"

FORGE_TIME = 8.0

WITH_WRITE = "ex''2+ex4"
WITHOUT_WRITE = "ex5"


def broken_rqs() -> RefinedQuorumSystem:
    """Properties 1-2 hold, Property 3 fails (checked by the caller)."""
    return resolve_rqs(BROKEN_RQS)


def find_witness(rqs: RefinedQuorumSystem) -> P3Witness:
    witness = check_property3(
        rqs.adversary, rqs.qc1, rqs.qc2, rqs.quorums
    )
    if witness is None:
        raise AssertionError("expected a P3 violation witness")
    return witness


@lru_cache(maxsize=1)
def witness_setup() -> Tuple[RefinedQuorumSystem, P3Witness]:
    """The broken family and its witness, computed once per process —
    every cell of this module and of :mod:`repro.experiments.theorem6`
    stages on the same witness."""
    rqs = broken_rqs()
    return rqs, find_witness(rqs)


def _round2(payload) -> bool:
    return isinstance(payload, WR) and payload.rnd >= 2


def _staged_faults(rqs, witness: P3Witness, with_write: bool) -> FaultPlan:
    """The fault plan for ex''2+ex4 (``with_write``) or ex5."""
    servers = rqs.ground_set
    q1 = witness.q1 if witness.q1 is not None else frozenset()
    q2, q = witness.q2, witness.q
    b1, b2 = witness.b1, witness.b2

    asynchrony = (
        # wr1 round 1 reaches only Q2; round 2 reaches only Q1 ∩ Q2.
        Hold(src=("writer",), dst=tuple(servers - q2),
             label="wr misses S\\Q2"),
        Hold(src=("writer",), dst=tuple(q2 - q1), payload=_round2,
             label="wr round2 misses Q2\\Q1"),
        # r1 only talks to Q1; r2 only hears from Q.
        Hold(src=("reader1",), dst=tuple(servers - q1), label="r1 ⊆ Q1"),
        Hold(src=tuple(servers - q), dst=("reader2",),
             label="r2 hears only Q"),
    )
    if with_write:
        # ex4: B1 forges σ0 (forgets everything) before rd2.
        forged_state, liars = None, b1
        crashes = (Crash("writer", 2.5),)  # after round-2 sends at 2Δ
    else:
        # ex5: B2 forges σ1 (pretends wr1's round 1 reached it).
        sigma1 = History()
        sigma1.store(1, 1, "v1", frozenset())
        forged_state, liars = sigma1.snapshot(), b2
        crashes = ()
    forger = partial(
        ForgetfulServer, trigger_time=FORGE_TIME, forged_state=forged_state
    )
    byzantine = tuple(
        ByzantineRole(sid, forger) for sid in sorted(liars, key=repr)
    )
    return FaultPlan(
        crashes=crashes, byzantine=byzantine, asynchrony=asynchrony
    )


def _build(point: Mapping) -> ScenarioSpec:
    rqs, witness = witness_setup()
    with_write = point["execution"]
    if with_write:
        workload = (
            Write(0.0, "v1"),              # wr1, crashes mid-write
            Read(4.0, reader=0),           # rd1, fast through Q1
            Read(FORGE_TIME, reader=1),    # rd2, after B1's forgery
        )
    else:
        # ex5: nothing is written; B2 fabricates wr1's round 1.
        workload = (Read(FORGE_TIME + 0.5, reader=1),)
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs=rqs,
        readers=2,
        faults=_staged_faults(rqs, witness, with_write=with_write),
        workload=workload,
        horizon=60.0,
        # The indistinguishability claim is about messages: rd2 reads
        # the same replies in both executions, which only the network's
        # send log shows.
        trace_level="full",
    )


def _measure(point: Mapping, result) -> Mapping:
    metrics = {"verdict": result.atomicity.verdict}
    if point["execution"]:
        r1, r2 = result.reads[0], result.reads[1]
        metrics.update(
            r1_value=repr(r1.result), r1_rounds=r1.rounds,
            r2_value=repr(r2.result),
        )
    else:
        metrics["r2_value"] = repr(result.reads[0].result)
    return metrics


#: The E7 grid: the proof's two indistinguishable executions.
GRID = SweepSpec(
    name="theorem3",
    axes={
        "execution": (
            labeled(WITH_WRITE, True),
            labeled(WITHOUT_WRITE, False),
        )
    },
    build=_build,
    measure=_measure,
)
