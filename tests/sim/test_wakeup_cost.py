"""Work-count regression for the wake pass — no wall clock.

The simulator re-polls a parked task only when its condition was
signalled.  The workload engineered to stress exactly that
(:func:`storage_spec`): ``n`` reader clients parked through an
*asynchronous interval* — their ``rd_ack`` channels held in transit, the
paper's standard adversary device — while a saturated writer churns the
event queue over fully heterogeneous per-link latencies.  No reader
condition is ever signalled, so the wake pass must cost nothing per
parked reader: at most one ``holds()``/``ready()`` per event (3 629 for
3 945 events).  The loop this replaced re-evaluated every parked
reader's quorum predicate after every instant — 403 141 calls on the
same execution, the ≥ 5× events/sec gate of the retired sim-core bench
restated as a count.

A wake pass also *visits* only the signalled conditions' waiters: it
sorts them by park number instead of sweeping every parked task, so
each task it looks at is one it polls (the park-order sweep it replaced
looked at every parked task on every pass).

The other deterministic facts that bench recorded (event and blocked
counts of its storage / consensus / micro rows) are pinned as literals.
"""

import pytest

from repro.experiments import keyed_mix_spec
from repro.scenarios import (
    Delay,
    FaultPlan,
    Hold,
    Propose,
    Read,
    ScenarioSpec,
    Write,
    run,
)
from repro.sim import conditions, simulator, tasks
from tests.counting import profiled

SERVERS = range(1, 9)  # example6 is an 8-server RQS
POLL_FILES = (conditions.__file__, tasks.__file__)


def storage_spec(n: int, horizon: float = 600.0) -> ScenarioSpec:
    """``n`` readers blocked by asynchrony while the writer saturates."""
    reader_pids = tuple(f"reader{r + 1}" for r in range(n))
    holds = tuple(Hold(src=(s,), dst=reader_pids) for s in SERVERS)
    delays = tuple(
        Delay(1.0 + 0.07 * s, dst=(s,)) for s in SERVERS
    ) + tuple(
        Delay(1.0 + 0.11 * s, src=(s,)) for s in SERVERS
    )
    writes = int(horizon / 2.5) + 10
    workload = tuple(
        Write(0.1 * i, i + 1) for i in range(writes)
    ) + tuple(
        Read(1.0 + 0.01 * r, reader=r) for r in range(n)
    )
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs="example6",
        readers=n,
        faults=FaultPlan(asynchrony=holds + delays),
        workload=workload,
        horizon=horizon,
        trace_level="metrics",
    )


def consensus_spec(n: int) -> ScenarioSpec:
    """A contended proposer pair over ``n`` learners (views change,
    suspect timers fire; nothing parks but the consult phase)."""
    return ScenarioSpec(
        protocol="rqs-consensus",
        rqs="example6",
        learners=n,
        workload=(
            Propose(0.0, "A", proposer=0),
            Propose(0.0, "B", proposer=1),
        ),
        horizon=300.0,
        trace_level="metrics",
    )


def micro_spec() -> ScenarioSpec:
    """50 reader clients on a seeded 16-register ABD mix, fault-free:
    every event is real protocol work."""
    return keyed_mix_spec(
        "abd", 16, writes=2_000, reads=3_000, readers=50, seed=5,
        trace_level="metrics",
    )


def test_parked_readers_are_not_polled():
    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in POLL_FILES:
            return frame.f_code.co_name

    result, polls = profiled(lambda: run(storage_spec(50)), count)
    events = result.events_processed
    assert (events, len(result.blocked)) == (3945, 51)
    assert 0 < polls["holds"] + polls["ready"] <= events


class VisitedTask(tasks.Task):
    """A task whose ``waiting_on`` is a property, so that a profiler sees
    every time the wake pass looks at it."""

    @property
    def waiting_on(self):
        return self._waiting_on

    @waiting_on.setter
    def waiting_on(self, effect):
        self._waiting_on = effect


def test_a_wake_pass_visits_only_the_signalled_waiters(monkeypatch):
    monkeypatch.setattr(simulator, "Task", VisitedTask)
    wake_pass = simulator.Simulator._wake_tasks.__code__
    look = VisitedTask.waiting_on.fget.__code__

    def count(frame, event, arg):
        if event == "call" and frame.f_back.f_code is wake_pass:
            if frame.f_code is look:
                return "visits"
            if frame.f_code.co_name == "holds":
                return "polls"

    result, seen = profiled(lambda: run(storage_spec(50)), count)
    assert result.events_processed == 3945
    # Every task the pass looks at is a signalled condition's waiter,
    # polled once; the parked readers cost nothing.  The park-order
    # sweep looked at 62 271 tasks for the same 1 221 polls.
    assert seen["visits"] == seen["polls"] == 1221


@pytest.mark.parametrize("spec, events, blocked, operations", [
    pytest.param(storage_spec(10), 3545, 11, 79, id="storage-10"),
    pytest.param(consensus_spec(3), 8503, 0, 5, id="consensus-3"),
    pytest.param(consensus_spec(50), 44270, 0, 52, id="consensus-50"),
    pytest.param(micro_spec(), 83272, 0, 5000, id="micro-mix"),
])
def test_simcore_executions_are_pinned(spec, events, blocked, operations):
    result = run(spec)
    assert result.events_processed == events
    assert len(result.blocked) == blocked
    assert result.ops_begun() == operations
