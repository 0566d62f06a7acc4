"""End-to-end tests for the RQS consensus protocol (Figures 9-15)."""

from repro.consensus.acceptor import Acceptor
from repro.consensus.proposer import EquivocatingProposer
from repro.scenarios import (
    ACCEPTOR,
    PROPOSER,
    ByzantineRole,
    Crash,
    FaultPlan,
    Propose,
    ScenarioSpec,
    crashes,
    run,
)

CONTENDED = (Propose(0.0, "A", proposer=0), Propose(0.0, "B", proposer=1))


class SilentAcceptor(Acceptor):
    benign = False

    def on_message(self, src, payload):
        return


def consensus(*workload, rqs="example6", horizon=600.0, **spec_fields):
    return run(ScenarioSpec(
        "rqs-consensus", rqs=rqs, workload=workload, horizon=horizon,
        **spec_fields,
    ))


def best_case(crashed=(), **spec_fields):
    """A single correct proposer proposes "V" at t=0."""
    return consensus(
        Propose(0.0, "V"), horizon=60.0,
        faults=FaultPlan(crashes=crashes({aid: 0.0 for aid in crashed})),
        **spec_fields,
    )


class TestBestCase:
    def test_class1_two_delays(self):
        result = best_case()
        assert all(d == 2.0 for d in result.learner_delays.values())
        assert set(result.learned.values()) == {"V"}

    def test_class2_three_delays(self):
        delays = best_case(crashed=(1, 2)).learner_delays
        assert all(d == 3.0 for d in delays.values())

    def test_class3_four_delays(self):
        delays = best_case(crashed=(1, 2, 3)).learner_delays
        assert all(d == 4.0 for d in delays.values())

    def test_pbft_style_instance(self):
        delays = best_case(rqs="pbft:1").learner_delays
        assert all(d == 2.0 for d in delays.values())

    def test_acceptors_decide_too(self):
        acceptors = best_case().adapter.acceptors
        assert len(acceptors) == 8
        assert all(a.decided == "V" for a in acceptors.values())


class TestFaults:
    def test_silent_byzantine_acceptor(self):
        result = consensus(
            Propose(0.0, "V"), horizon=60.0,
            faults=FaultPlan(byzantine=(
                ByzantineRole(8, SilentAcceptor, role=ACCEPTOR),
            )),
        )
        assert set(result.learned.values()) == {"V"}
        assert all(d is not None for d in result.learner_delays.values())

    def test_byzantine_equivocating_proposer_recovered(self):
        result = consensus(
            Propose(0.0, "EVIL", proposer=0),
            Propose(1.0, "GOOD", proposer=1),
            faults=FaultPlan(byzantine=(
                ByzantineRole(0, EquivocatingProposer, role=PROPOSER),
            )),
        )
        learned = result.learned
        assert len(learned) == 3
        assert len(set(learned.values())) == 1

    def test_contention_resolved_by_view_change(self):
        result = consensus(*CONTENDED)
        assert result.adapter.correct_learner_pids() == ("l1", "l2", "l3")
        assert result.consensus.ok

    def test_crashed_initial_leader_failover(self):
        result = consensus(
            Propose(0.0, "A", proposer=0),
            params={"proposer_values": {1: "B"}},
            # p1 crashes right after its prepare is sent
            faults=FaultPlan(crashes=(Crash("p1", 0.5),)),
        )
        learned = result.learned
        assert len(learned) == 3 and len(set(learned.values())) == 1

    def test_max_acceptor_crashes_tolerated(self):
        result = best_case(crashed=(1, 2, 3))
        assert set(result.learned.values()) == {"V"}


class TestEventualSynchrony:
    def test_validity_under_contention(self):
        values = set(consensus(*CONTENDED).learned.values())
        assert values and values <= {"A", "B"}
