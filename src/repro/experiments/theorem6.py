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

from typing import Dict, FrozenSet, Mapping

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
)
from repro.consensus.acceptor import Acceptor
from repro.consensus.choose import choose
from repro.consensus.messages import AckData, Decision, NewViewAck, Update
from repro.experiments.theorem3 import witness_setup


def valid_rqs() -> RefinedQuorumSystem:
    return resolve_rqs("example6")


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
        signature = self.service.sign(self.pid, self.service.canonical(body))
        self.send(pending.proposer, NewViewAck(body, signature))


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
    rqs, witness = witness_setup()
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
                ByzantineRole(sid, LyingAcceptor, role=ACCEPTOR)
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


# -- exhibit 2: choose() on the staged consult state ---------------------------

def _staged_vproof(
    q2: FrozenSet, quorum: FrozenSet, liars: FrozenSet
) -> Dict:
    """The proof's ex4 consult state, synthesized directly: value 1 was
    Decided-3 in view 0 through the class-2 quorum ``q2``; the consult
    quorum is ``quorum``; ``liars`` report σ0, the rest of ``q2``
    honestly reports its 1-update, everyone else is fresh."""

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

    return {
        acceptor: (
            honest_q2_member()
            if acceptor in q2 and acceptor not in liars
            else fresh()      # a Byzantine lie, or genuinely fresh
        )
        for acceptor in quorum
    }


def _choose_cell(point: Mapping) -> Mapping:
    """``choose()`` on the staged ex4 state for one quorum family."""
    if point["family"] == "broken":
        rqs, witness = witness_setup()
        q2, quorum, liars = witness.q2, witness.q, witness.b1
    else:
        # Under the valid family the same witness shape cannot exist;
        # stage the analogous state on its own quorums: q2 is a class-2
        # quorum, the consult quorum shares some of it, one of which
        # lies.
        rqs = valid_rqs()
        q2 = next(iter(rqs.qc2))
        others = sorted(rqs.ground_set - q2, key=repr)
        overlap = sorted(q2, key=repr)[:5 - len(others)]
        quorum = frozenset(others) | frozenset(overlap)
        liars = frozenset(overlap[:1])
    v_proof = _staged_vproof(q2, quorum, liars)
    return {"value": choose(rqs, 0, v_proof, quorum).value}


#: The E10 choose-level grid: one analytic cell per quorum family.
CHOOSE_GRID = SweepSpec(
    name="theorem6-choose",
    axes={"family": ("broken", "valid")},
    evaluate=_choose_cell,
)
