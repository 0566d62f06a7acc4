"""The decision/learned Events: the delivery path signals waiters."""

from repro.scenarios import Propose, ScenarioSpec, get_protocol, run
from repro.sim.tasks import WaitUntil

SPEC = ScenarioSpec(
    "rqs-consensus", rqs="example6", workload=(Propose(0.0, "V"),),
    horizon=60.0,
)


def test_decision_events_wake_waiters():
    # The adapter lifecycle by hand, to park a watcher before the run.
    adapter = get_protocol(SPEC.protocol).build(SPEC)
    learner = adapter.learners[0]

    def watcher():
        yield WaitUntil(learner.learned_event)
        return (adapter.sim.now, learner.learned)

    task = adapter.sim.spawn(watcher(), "decision watcher")
    adapter.schedule(SPEC)
    adapter.execute(SPEC)
    # The watcher woke in the same instant the learner learned.
    assert task.done() and task.result == (learner.learned_at, "V")
    assert all(
        acceptor.decided_event.holds()
        for acceptor in adapter.acceptors.values()
    )


def test_events_unset_while_undecided():
    adapter = run(SPEC.with_(workload=())).adapter
    assert not any(
        learner.learned_event.holds() for learner in adapter.learners
    )
    assert not any(
        acceptor.decided_event.holds()
        for acceptor in adapter.acceptors.values()
    )
