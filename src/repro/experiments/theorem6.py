"""Experiment E10 — Figure 16: the Theorem 6 impossibility construction.

Theorem 6: no ``(Q(3), B)``-consensus can be both ``(1, Q(1))``-fast and
``(2, Q(2))``-fast when Property 3 fails.  Two exhibits, each a sweep:

1. **End-to-end agreement violation** (:data:`END_TO_END_GRID`): the
   real consensus algorithm over the P3-violating family
   (``n=8, t=3, k=1, q=1, r=3``) is driven through the proof's schedule:

   * proposer ``p1`` proposes 1; its messages reach only ``Q2``, whose
     update cascade lets learner ``l1`` Decide-3 the value 1 — legal,
     since ``Q2`` is a class-2 quorum here;
   * step-2/3 updates never reach the acceptor set ``B2``, and view-0
     updates/decisions never escape ``Q2 ∪ {l1}``;
   * the suspect timers elect ``p2`` (proposing 0) for view 1; its
     consult quorum is forced to the witness quorum ``Q``, inside which
     the Byzantine set ``B1`` lies that it saw nothing (σ0);
   * with P3 violated, ``choose()`` finds **no candidate** — ``B2``'s
     honest 1-update evidence is uncheckable (P3a fails: ``B2 ∈ B``)
     and unpinnable (P3b fails: ``Q1∩Q2∩Q \\ B'1 = ∅``) — so ``p2``
     freely proposes 0, every learner except ``l1`` learns 0, and
     agreement breaks.

2. **Choose-level exhibit** (:data:`CHOOSE_GRID`, an analytic
   ``evaluate`` sweep): the same ``vProof`` handed to ``choose()``
   returns the intruding default under the broken family but returns
   the decided value under the valid family (``r=2``) where ``P3b``
   pins it through the class-1 quorum — isolating exactly why
   Property 3 is the safety hinge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.core.properties import P3Witness, negate_property3
from repro.core.rqs import RefinedQuorumSystem
from repro.scenarios import (
    ACCEPTOR,
    ByzantineRole,
    FaultPlan,
    Hold,
    Propose,
    ScenarioSpec,
    SweepSpec,
    resolve_rqs,
    run_grid,
)
from repro.consensus.acceptor import Acceptor
from repro.consensus.choose import choose
from repro.consensus.messages import AckData, Decision, NewViewAck, Update


def broken_rqs() -> RefinedQuorumSystem:
    """P1 and P2 hold, P3 fails (``n = t + r + k + min(k, q)``)."""
    return resolve_rqs("example6-broken-p3")


def valid_rqs() -> RefinedQuorumSystem:
    return resolve_rqs("example6")


def find_witness(rqs: RefinedQuorumSystem) -> P3Witness:
    witness = negate_property3(rqs.adversary, rqs.qc1, rqs.qc2, rqs.quorums)
    if witness is None:
        raise AssertionError("expected a P3 violation witness")
    return witness


@lru_cache(maxsize=1)
def _witness_setup() -> Tuple[RefinedQuorumSystem, P3Witness]:
    """The broken family and its witness, computed once per process —
    the staged schedule and the reporting code must agree on it."""
    rqs = broken_rqs()
    return rqs, find_witness(rqs)


class LyingAcceptor(Acceptor):
    """Byzantine acceptor: participates correctly in the update path but
    reports a pristine state (σ0) in its ``new_view_ack`` — the ``B1``
    behaviour of the proof's ex4."""

    benign = False

    def _send_new_view_ack(self) -> None:
        pending = self._pending_nva
        if pending is None:
            return
        self._pending_nva = None
        body = AckData(
            view=self.view,
            prep=None,
            prep_view=frozenset(),
            update={1: None, 2: None},
            update_view={1: frozenset(), 2: frozenset()},
            update_q={},
            update_proof={},
        )
        signature = self.service.sign(self.pid, body.canonical())
        self.send(pending.proposer, NewViewAck(body, signature))


@dataclass
class Theorem6Outcome:
    witness: P3Witness
    learned: Dict[object, object]
    agreement_ok: bool
    choose_broken_value: object
    choose_valid_value: object

    def rows(self) -> Tuple[str, ...]:
        return (
            f"witness: {self.witness.describe()}",
            f"end-to-end learned: {self.learned} -> "
            f"{'agreement ok?!' if self.agreement_ok else 'AGREEMENT VIOLATION'}",
            f"choose() under broken RQS returns {self.choose_broken_value!r} "
            f"(the decided value 1 is lost)",
            f"choose() under valid RQS returns {self.choose_valid_value!r} "
            f"(P3b pins the decided value)",
        )


# -- exhibit 1: the end-to-end schedule ----------------------------------------

def _view0_contagion(payload) -> bool:
    return (isinstance(payload, Update) and payload.view == 0) or (
        isinstance(payload, Decision) and payload.value == 1
    )


def _later_step_update(payload) -> bool:
    return isinstance(payload, Update) and payload.step >= 2


def _decision_for_one(payload) -> bool:
    return isinstance(payload, Decision) and payload.value == 1


def _new_view_ack(payload) -> bool:
    return isinstance(payload, NewViewAck)


def _end_to_end_spec(point: Mapping) -> ScenarioSpec:
    rqs, witness = _witness_setup()
    servers = rqs.ground_set
    q2, q = witness.q2, witness.q
    b1, b2 = witness.b1, witness.b2

    asynchrony = (
        # p1's messages reach only Q2 (prepare, sync, pulls).
        Hold(src=("p1",), dst=tuple(servers - q2),
             label="p1 only reaches Q2"),
        # view-0 updates / value-1 decisions never escape Q2 ∪ {l1}.
        Hold(src=tuple(q2),
             dst=tuple((servers - q2) | {"l2", "l3", "p1", "p2"}),
             payload=_view0_contagion,
             label="view-0 contagion contained"),
        # value-1 decisions are held everywhere (timers must keep running).
        Hold(src=tuple(q2),
             payload=_decision_for_one,
             label="decision(1) held"),
        # B2 never sees step-2/3 updates (so it cannot 2-update).
        Hold(dst=tuple(b2), payload=_later_step_update,
             label="B2 starved of update2/3"),
        # p2's consult must see exactly the witness quorum Q.
        Hold(src=tuple(servers - q), dst=("p2",),
             payload=_new_view_ack,
             label="p2 hears acks only from Q"),
    )
    return ScenarioSpec(
        protocol="rqs-consensus",
        rqs=rqs,
        proposers=2,
        learners=3,
        faults=FaultPlan(
            byzantine=tuple(
                ByzantineRole(sid, role=ACCEPTOR, factory=LyingAcceptor)
                for sid in sorted(b1, key=repr)
            ),
            asynchrony=asynchrony,
        ),
        workload=(Propose(0.0, 1, proposer=0),),
        horizon=120.0,
        # p2 will propose 0 when elected for view 1.
        params={"proposer_values": {1: 0}},
    )


def _end_to_end_measure(point: Mapping, result) -> Mapping:
    learners = result.adapter.learners
    report = result.check_consensus(
        benign_learners=[learner.pid for learner in learners]
    )
    return {
        "verdict": "ok" if report.agreement_ok else "violation",
        "learned": {
            str(learner.pid): learner.learned for learner in learners
        },
    }


#: The E10 end-to-end grid (a single staged execution).
END_TO_END_GRID = SweepSpec(
    name="theorem6-end-to-end",
    axes={"execution": ("proof-schedule",)},
    build=_end_to_end_spec,
    measure=_end_to_end_measure,
)


def run_end_to_end() -> Tuple[P3Witness, Dict[object, object], bool]:
    _, witness = _witness_setup()
    cell = run_grid(END_TO_END_GRID).cells[0]
    result = cell.unwrap()
    learned = {l.pid: l.learned for l in result.adapter.learners}
    return witness, learned, cell.verdict == "ok"


# -- exhibit 2: choose() on the staged consult state ---------------------------

def _staged_vproof(
    rqs: RefinedQuorumSystem, witness: P3Witness
) -> Tuple[Dict, FrozenSet]:
    """The proof's ex4 consult state, synthesized directly: value 1 was
    Decided-3 in view 0 through ``Q2``; the consult quorum is ``Q``;
    ``B1`` lies (σ0), ``B2`` honestly reports its 1-update, everyone
    else is fresh."""
    q2, q = witness.q2, witness.q
    b1 = witness.b1

    def fresh() -> AckData:
        return AckData(
            view=1,
            prep=None,
            prep_view=frozenset(),
            update={1: None, 2: None},
            update_view={1: frozenset(), 2: frozenset()},
            update_q={},
            update_proof={},
        )

    def honest_q2_member() -> AckData:
        return AckData(
            view=1,
            prep=1,
            prep_view=frozenset({0}),
            update={1: 1, 2: None},
            update_view={1: frozenset({0}), 2: frozenset()},
            update_q={(1, 0): (q2,)},
            update_proof={},
        )

    v_proof: Dict = {}
    for acceptor in q:
        if acceptor in b1:
            v_proof[acceptor] = fresh()       # Byzantine lie
        elif acceptor in q2:
            v_proof[acceptor] = honest_q2_member()
        else:
            v_proof[acceptor] = fresh()       # genuinely fresh
    return v_proof, q


def _choose_cell(point: Mapping) -> Mapping:
    """``choose()`` on the staged ex4 state for one quorum family."""
    if point["family"] == "broken":
        broken, witness = _witness_setup()
        v_proof, quorum = _staged_vproof(broken, witness)
        return {"value": choose(broken, 0, v_proof, quorum).value}

    # Under the valid family the same witness shape cannot exist; stage
    # the analogous state on its own quorums: Q2v is a class-2 quorum, the
    # consult quorum shares with it acceptors B1v ∪ B2v where B1v lies.
    valid = valid_rqs()
    q2v = next(iter(valid.qc2))
    others = sorted(valid.ground_set - q2v, key=repr)
    overlap_needed = 5 - len(others)
    overlap = sorted(q2v, key=repr)[:overlap_needed]
    quorum_v = frozenset(others) | frozenset(overlap)
    liar = frozenset(overlap[:1])

    def fresh() -> AckData:
        return AckData(
            view=1, prep=None, prep_view=frozenset(),
            update={1: None, 2: None},
            update_view={1: frozenset(), 2: frozenset()},
            update_q={}, update_proof={},
        )

    def honest() -> AckData:
        return AckData(
            view=1, prep=1, prep_view=frozenset({0}),
            update={1: 1, 2: None},
            update_view={1: frozenset({0}), 2: frozenset()},
            update_q={(1, 0): (q2v,)}, update_proof={},
        )

    v_proof_v = {}
    for acceptor in quorum_v:
        if acceptor in liar:
            v_proof_v[acceptor] = fresh()
        elif acceptor in q2v:
            v_proof_v[acceptor] = honest()
        else:
            v_proof_v[acceptor] = fresh()
    return {"value": choose(valid, 0, v_proof_v, quorum_v).value}


#: The E10 choose-level grid: one analytic cell per quorum family.
CHOOSE_GRID = SweepSpec(
    name="theorem6-choose",
    axes={"family": ("broken", "valid")},
    evaluate=_choose_cell,
)


def run_choose_exhibit() -> Tuple[object, object]:
    """``choose()`` on the staged ex4 state: broken vs valid family."""
    sweep = run_grid(CHOOSE_GRID)
    return (
        sweep.cell(family="broken").require().metrics["value"],
        sweep.cell(family="valid").require().metrics["value"],
    )


def run_experiment() -> Theorem6Outcome:
    witness, learned, agreement_ok = run_end_to_end()
    broken_value, valid_value = run_choose_exhibit()
    return Theorem6Outcome(
        witness=witness,
        learned=learned,
        agreement_ok=agreement_ok,
        choose_broken_value=broken_value,
        choose_valid_value=valid_value,
    )


def violation_demonstrated(outcome: Theorem6Outcome) -> bool:
    values = set(outcome.learned.values()) - {None}
    return (
        not outcome.agreement_ok
        and len(values) == 2
        and outcome.choose_broken_value == 0
        and outcome.choose_valid_value == 1
    )
