"""Soundness of the per-run proof memos.

A Prepare's ``vProof`` is judged once per run (the run's
``SignatureService.accepted``) and a signed body is canonicalised once
(``SignatureService.canonical``).  The judgement they replaced — every
receiver re-validates every ack against a fresh ``body.canonical()``
and reruns ``choose()`` — lives on only here, verbatim, as
:class:`ReferenceProofAcceptor`.  Eight example6 acceptors in view 1 on
one service, one world of each kind, are fed the same signings and
deliveries of the view-1 leader's Prepares and must agree after every
step on what each acceptor prepared and on every message sent.  Seeded
bugs in the memos must each be caught by that comparison.
"""

from collections import Counter
from dataclasses import replace
from functools import partial

from repro.consensus.acceptor import Acceptor
from repro.consensus.choose import choose as run_choose
from repro.consensus.messages import (
    AckData,
    NewViewAck,
    Prepare,
    update_statement,
)
from repro.core.constructions import threshold_rqs
from repro.crypto.signatures import SignatureService, Signed
from repro.scenarios import Crash, FaultPlan, Hold, Propose, ScenarioSpec, run
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from tests.counting import counted
from tests.differential import agree, assert_killed, each_mutant

RQS = threshold_rqs(8, 3, 1, 1, 2)        # example6
PROPOSERS = ("p1", "p2")
LEADER = "p2"                             # leads view 1
VIEW = 1
Q = RQS.quorums[0]                        # {1, 2, 3, 4, 5}


# -- the reference: the judgement before the memos, verbatim -----------------

def reference_validate_new_view_ack(service, rqs, sender, ack, expected_view):
    """Is this a valid ``new_view_ack`` from ``sender`` for the view?"""
    body = ack.body
    if body.view != expected_view:
        return False
    signature = ack.signature
    if signature.signer != sender:
        return False
    if signature.content != body.canonical():
        return False
    if not service.verify(signature):
        return False
    for step in (1, 2):
        value = body.update.get(step)
        for view in body.update_view.get(step, frozenset()):
            proof = body.update_proof_of(step, view)
            statement = update_statement(step, value, view)
            signers = set()
            for signed in proof:
                if signed.content != statement or not service.verify(signed):
                    return False
                signers.add(signed.signer)
            if not rqs.is_basic(signers):
                return False
    return True


class ReferenceProofAcceptor(Acceptor):
    """Judges every Prepare it is handed from scratch."""

    def _prepare_proof_ok(self, prepare):
        """Re-validate ``vProof`` and check ``v`` against ``choose()``."""
        if prepare.v_proof is None or prepare.quorum is None:
            return False
        if not self.rqs.is_quorum(prepare.quorum):
            return False
        v_proof = {}
        for ack in prepare.v_proof:
            sender = ack.signature.signer
            if not reference_validate_new_view_ack(
                self.service, self.rqs, sender, ack, prepare.view
            ):
                return False
            v_proof[sender] = ack.body
        if not prepare.quorum <= set(v_proof):
            return False
        result = run_choose(
            self.rqs, prepare.value, v_proof, prepare.quorum
        )
        return (not result.abort) and result.value == prepare.value


# -- the harness ---------------------------------------------------------------

class World:
    """Eight acceptors that have moved to view 1, sharing one service;
    proposers and the learner are silent sinks, so ``network.log`` is
    what the acceptors sent."""

    def __init__(self, acceptor_cls, service_cls):
        self.network = Network(Simulator(), delta=1.0)
        self.service = service_cls()
        self.acceptors = {
            aid: acceptor_cls(
                aid, RQS, PROPOSERS, ("l1",), self.service
            ).bind(self.network)
            for aid in RQS.servers
        }
        for pid in PROPOSERS + ("l1",):
            Process(pid).bind(self.network)
        for acceptor in self.acceptors.values():
            acceptor.view = VIEW                  # as if by new_view

    def apply(self, step):
        kind, who, what = step
        if kind == "sign":                        # ``who`` signs a body
            self.service.sign(who, what.canonical())
        else:                                     # the leader's Prepare
            self.acceptors[who].on_message(LEADER, what)

    def observed(self):
        return {
            **{aid: (a.prep, sorted(a.prep_view))
               for aid, a in self.acceptors.items()},
            "sent": [(m.dst, m.payload) for m in self.network.log],
        }


def parts(subject):
    """A mutant replaces the acceptor or the service."""
    if issubclass(subject, SignatureService):
        return Acceptor, subject
    return subject, SignatureService


def differential(runs, subject=Acceptor):
    """Feed each script of ``runs`` — one per execution, in order — to
    a reference world and to a world built from ``subject``; they must
    agree after every step.  Returns the last pair of worlds."""
    acceptor_cls, service_cls = parts(subject)
    for steps in runs:
        worlds = agree(
            World(ReferenceProofAcceptor, SignatureService),
            World(acceptor_cls, service_cls),
            steps, World.apply, World.observed,
        )
    return worlds


# -- the proofs ----------------------------------------------------------------

def fresh_body(prep=None, prep_view=frozenset()):
    """A view-1 ``new_view_ack`` body with nothing updated."""
    return AckData(
        view=VIEW, prep=prep, prep_view=prep_view,
        update={1: None, 2: None},
        update_view={1: frozenset(), 2: frozenset()},
        update_q={}, update_proof={},
    )


BODIES = {a: fresh_body() for a in sorted(Q)}
ACKS = {
    a: NewViewAck(body, Signed(a, body.canonical()))
    for a, body in BODIES.items()
}


def prepare_with(**acks):
    """The leader's ``prepare⟨"v", 1, vProof, Q⟩`` with some acks of Q
    replaced (by member: ``a5=...``)."""
    chosen = {**ACKS, **{int(k[1:]): ack for k, ack in acks.items()}}
    return Prepare("v", VIEW, tuple(chosen[a] for a in sorted(Q)), Q)


VALID = prepare_with()
#: 5's ack replaced by one claiming a view-0 lock 5 never signed.
LOCK = fresh_body(prep="v", prep_view=frozenset({0}))
NOT_GENUINE = prepare_with(a5=NewViewAck(LOCK, Signed(5, LOCK.canonical())))
#: 5's genuine ack with its body edited after signing.
EDITED = prepare_with(a5=NewViewAck(
    replace(BODIES[5], prep="v", prep_view=frozenset({0})),
    ACKS[5].signature,
))
OTHERS = [a for a in RQS.servers if a != 1]


def signings(members=Q):
    return [("sign", a, BODIES[a]) for a in sorted(members)]


def deliveries(prepare, acceptors):
    return [("deliver", a, prepare) for a in acceptors]


#: 1 accepts the valid Prepare; the others are then handed the same
#: view and value with a forged vProof, twice, then the valid one.
FORGED_AFTER_VALID = [
    signings()
    + deliveries(VALID, [1])
    + deliveries(NOT_GENUINE, OTHERS)
    + deliveries(EDITED, OTHERS)
    + deliveries(VALID, OTHERS)
]

#: 5 has not signed yet: 1 refuses; 5 signs; the same payload again.
SIGNED_LATE = [
    signings(Q - {5})
    + deliveries(VALID, [1])
    + signings({5})
    + deliveries(VALID, [1, 2])
]

#: Q reports "v" prepared in view 0: choose() picks "v", so a Prepare
#: of "w" over the same acks is refused by every acceptor, every time.
LOCKS = {a: fresh_body(prep="v", prep_view=frozenset({0})) for a in sorted(Q)}
LOCKED = {
    value: Prepare(value, VIEW, tuple(
        NewViewAck(LOCKS[a], Signed(a, LOCKS[a].canonical()))
        for a in sorted(Q)
    ), Q)
    for value in ("v", "w")
}
CHOOSE_REFUSES = [
    [("sign", a, LOCKS[a]) for a in sorted(Q)]
    + deliveries(LOCKED["w"], RQS.servers)
    + deliveries(LOCKED["w"], [1])
    + deliveries(LOCKED["v"], [1])
]

#: Two executions in one process: the second run's service has signed
#: nothing, so the first run's acceptance must not carry over.
TWO_RUNS = [signings() + deliveries(VALID, [1]), deliveries(VALID, [1])]

SCRIPTS = {
    "forged-after-valid": FORGED_AFTER_VALID,
    "signed-late": SIGNED_LATE,
    "two-runs": TWO_RUNS,
    "choose-refuses": CHOOSE_REFUSES,
}


def test_a_fresh_vproof_chooses_the_leaders_value():
    result = run_choose(RQS, "v", BODIES, Q)
    assert (result.value, result.abort) == ("v", False)


def test_a_forged_vproof_is_refused_by_every_acceptor_after_a_valid_one():
    _, world = differential(FORGED_AFTER_VALID)
    assert world.service.accepted == {(RQS, VALID)}
    assert all(a.prep == "v" for a in world.acceptors.values())


def test_forgeries_are_refused_step_by_step():
    """Before the valid Prepare reaches them, the others hold nothing."""
    steps = FORGED_AFTER_VALID[0][:-len(OTHERS)]
    _, world = differential([steps])
    assert world.acceptors[1].prep == "v"
    assert all(world.acceptors[a].prep is None for a in OTHERS)


def test_a_refusal_is_judged_again_once_the_signer_signs():
    _, world = differential(SIGNED_LATE)
    assert world.acceptors[1].prep == world.acceptors[2].prep == "v"


def test_a_prepare_choose_refuses_is_refused_every_time():
    _, world = differential(CHOOSE_REFUSES)
    assert world.acceptors[1].prep == "v"
    assert all(world.acceptors[a].prep is None for a in OTHERS)
    assert world.service.accepted == {(RQS, LOCKED["v"])}


def test_two_runs_share_no_verdict():
    _, world = differential(TWO_RUNS)
    assert world.acceptors[1].prep is None and not world.service.accepted


def test_each_body_is_canonicalised_once_per_run(monkeypatch):
    """Acceptor 1 judges the valid Prepare, the seven others each
    forgery and then the valid one: seven bodies (Q's five, the lock,
    the edit), seven forms, whatever the number of judges."""
    world = World(Acceptor, SignatureService)
    steps = FORGED_AFTER_VALID[0]
    for step in steps[:len(Q)]:
        world.apply(step)
    calls = Counter()
    monkeypatch.setattr(AckData, "canonical",
                        counted(AckData, "canonical", calls))
    for step in steps[len(Q):]:
        world.apply(step)
    forms = world.service._forms
    assert calls["canonical"] == len(forms) == 7
    assert all(form == body.canonical() for body, form in forms.items())


def _view_change_spec():
    """p1's prepare reaches 3..8 only and 7, 8 crash: p2's view change
    must carry a vProof (the consensus goldens' last spec)."""
    return ScenarioSpec(
        protocol="rqs-consensus", rqs="example6", proposers=2,
        faults=FaultPlan(
            crashes=(Crash(7, 1.5), Crash(8, 1.5)),
            asynchrony=(Hold(src=("p1",), dst=(1, 2),
                             payload=lambda p: isinstance(p, Prepare)),),
        ),
        workload=(Propose(0.0, "A", proposer=0),),
        horizon=600.0,
        params={"proposer_values": {1: "B"}},
    )


def test_no_code_path_edits_a_signed_body():
    """What the form memo rests on: after two whole executions with a
    view change, every body still canonicalises to the form its run
    remembered, and each run kept its own memos."""
    services = []
    for _ in range(2):
        result = run(_view_change_spec())
        service = result.adapter.acceptors[1].service
        assert service.accepted and service._forms
        for body, form in service._forms.items():
            assert body.canonical() == form
        services.append(service)
    first, second = services
    assert first.accepted.isdisjoint(second.accepted)
    assert first._forms.keys().isdisjoint(second._forms.keys())


# -- seeded mutants -------------------------------------------------------------

class PerViewAndValue(Acceptor):
    """The memo keyed by ``(view, value)`` instead of the payload."""

    def _prepare_proof_ok(self, prepare):
        key = (prepare.view, prepare.value)
        if key in self.service.accepted:
            return True
        if not super()._prepare_proof_ok(prepare):
            return False
        self.service.accepted.add(key)
        return True


class CachesRejections(Acceptor):
    """Refusals are remembered too."""

    def _prepare_proof_ok(self, prepare):
        verdicts = vars(self.service).setdefault("verdicts", {})
        if prepare not in verdicts:
            verdicts[prepare] = super()._prepare_proof_ok(prepare)
        return verdicts[prepare]


class RemembersAnyVerdict(Acceptor):
    """A Prepare that ``choose()`` refused is remembered as judged."""

    def _prepare_proof_ok(self, prepare):
        key = (self.rqs, prepare)
        verdict = super()._prepare_proof_ok(prepare)
        if not verdict and prepare.v_proof is not None:
            self.service.accepted.add(key)
        return verdict


class SharedAcrossRuns(Acceptor):
    """The memo kept at module level, outliving its run."""

    accepted = set()

    def _prepare_proof_ok(self, prepare):
        if prepare in self.accepted:
            return True
        verdict = super()._prepare_proof_ok(prepare)
        if verdict:
            self.accepted.add(prepare)
        return verdict


class FormOutlivesAnEdit(SignatureService):
    """A form remembered per view rather than per body, so an edited
    body passes for the one it was edited from."""

    def canonical(self, body):
        forms = self._forms
        if body.view not in forms:
            forms[body.view] = body.canonical()
        return forms[body.view]


MUTANTS = {
    PerViewAndValue: "forged-after-valid",
    CachesRejections: "signed-late",
    RemembersAnyVerdict: "choose-refuses",
    SharedAcrossRuns: "two-runs",
    FormOutlivesAnEdit: "forged-after-valid",
}


@each_mutant(MUTANTS)
def test_seeded_mutants_are_killed(mutant):
    SharedAcrossRuns.accepted.clear()
    assert_killed(partial(differential, SCRIPTS[MUTANTS[mutant]]),
                  Acceptor, mutant)
