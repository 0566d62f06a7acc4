"""``run_branches``: several generator branches inside one task.

A batched RQS read runs its collect rounds and its write-back groups as
branches of the batch's one task.  These tests pin the driver's
contract: a lone branch parks on its bare condition, several park on
their ``AnyOf``, ready branches resume in list order, a branch appended
mid-pass starts in that pass, and no branch costs the simulator a task.
"""

from repro.sim.conditions import AnyOf, Event
from repro.sim.simulator import Simulator
from repro.sim.tasks import WaitUntil, run_branches


def waits_on(log, name, *events):
    """A branch that waits on each of ``events`` in turn, logging each
    resume as ``(name, i)``."""
    for i, event in enumerate(events):
        yield WaitUntil(event)
        log.append((name, i))


def test_no_branches_return_at_once():
    assert list(run_branches([])) == []


def test_a_branch_that_never_waits_finishes_in_the_first_pass():
    log = []

    def instant():
        log.append("ran")
        return
        yield  # pragma: no cover - makes this a generator

    assert list(run_branches([instant(), instant()])) == []
    assert log == ["ran", "ran"]


def test_a_lone_branch_parks_on_its_bare_condition():
    event = Event("only")
    driver = run_branches([waits_on([], "a", event)])
    assert next(driver).condition is event


def test_pending_branches_park_on_their_anyof():
    first, second = Event("first"), Event("second")
    driver = run_branches([
        waits_on([], "a", first), waits_on([], "b", second),
    ])
    wait = next(driver)
    assert isinstance(wait.condition, AnyOf)
    assert wait.condition.children == (first, second)
    # One branch done: the other's condition is waited on bare.
    first.set()
    assert next(driver).condition is second


def test_ready_branches_resume_in_list_order():
    log = []
    early, late, never = Event(), Event(), Event()
    driver = run_branches([
        waits_on(log, "a", late), waits_on(log, "b", never),
        waits_on(log, "c", early),
    ])
    next(driver)
    early.set()
    late.set()
    assert next(driver).condition is never
    assert log == [("a", 0), ("c", 0)]


def test_a_branch_appended_mid_pass_starts_in_that_pass():
    log = []
    go, child_event = Event(), Event()
    branches = []

    def parent():
        yield WaitUntil(go)
        log.append(("parent", 0))
        branches.append(waits_on(log, "child", child_event))

    branches.append(parent())
    driver = run_branches(branches)
    next(driver)
    go.set()
    # The parent returned and its child already waits on its event.
    assert next(driver).condition is child_event
    child_event.set()
    assert list(driver) == []
    assert log == [("parent", 0), ("child", 0)]


def test_branches_run_inside_one_task_to_their_instants():
    sim = Simulator()
    log = []

    def timed(name, *times):
        for time in times:
            yield WaitUntil(sim.timer_at(time))
            log.append((name, sim.now))

    def batch():
        yield from run_branches([timed("a", 1.0, 4.0), timed("b", 2.0)])
        return sim.now

    task = sim.spawn(batch())
    sim.run_to_completion()
    assert task.result == 4.0
    assert log == [("a", 1.0), ("b", 2.0), ("a", 4.0)]
    assert sim._tasks == [task]
