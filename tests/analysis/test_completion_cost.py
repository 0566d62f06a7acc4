"""Work-count regression for the accounting of completed ops — no
wall clock.

Every completed operation of a streamed run goes through
``Trace.complete -> LatencyAccumulator.observe ->
OnlineChecker.on_complete``.  That path was once not constant per op:
each completion walked the checker's in-flight set twice (a
comprehension looking for stuck ops, ``min`` over the values for the
window floor — 2N entries with N ops in flight) and built two
``Fraction``s for the exact latency sum.  The floor is now the top of a
heap and the sum an integer, so the in-flight set is not looked at at
all while nothing is stuck.  And the path is paid per *wave* — the
records one client completes at one instant — not per op: a batch of 16
is one call of each of its entry points.
"""

import fractions
import os

import pytest

from repro.analysis import streaming
from repro.analysis.streaming import OnlineChecker
from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import run
from repro.sim import trace as trace_module
from repro.sim.trace import Trace
from repro.storage.history import BOTTOM
from tests.counting import profiled


class CountingDict(dict):
    """A ``dict`` that counts the entries its iterators hand out — what
    a comprehension's or ``min``'s inner loop costs, which no call
    count can see."""

    visited = 0

    def _counted(self, iterator):
        for item in iterator:
            self.visited += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def keys(self):
        return self._counted(super().keys())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


def entries_visited_by_one_more_op(in_flight):
    """Hold ``in_flight`` reads open, then begin and complete one more:
    how many in-flight entries did that one op make the checker visit?"""
    checker = OnlineChecker()
    pending = checker._pending = CountingDict()
    trace = Trace(retain=False)
    trace.subscribe(
        on_begin=checker.on_begin, on_complete=checker.on_complete
    )
    for n in range(in_flight):
        trace.begin("read", f"r{n}", float(n), ((None, n % 4),))
    assert len(pending) == in_flight < checker.overrun_ops
    pending.visited = 0
    record, = trace.begin("read", "one-more", float(in_flight), ((None, 0),))
    trace.complete((record,), in_flight + 1.0, (BOTTOM,), 1)
    assert checker._floor == 0.0 and len(pending) == in_flight
    return pending.visited


def test_a_completion_visits_no_more_entries_with_more_ops_in_flight():
    visited = [entries_visited_by_one_more_op(n) for n in (8, 64, 512)]
    # The parent visited 2N: [16, 128, 1024].
    assert visited == [0, 0, 0]


def profiled_soak(max_ops):
    """Run a batched ``abd`` soak counting, per (file, function), the
    Python-level calls inside ``analysis/streaming.py`` and
    ``sim/trace.py``, and the ``Fraction``s built while a
    ``Trace.complete`` frame is on the stack."""
    spec = keyed_mix_spec(
        "abd", 16, writes=4000, reads=6000, readers=8, seed=3,
        trace_level="metrics", batch_size=16, max_ops=max_ops,
    )
    files = {
        module.__file__: os.path.basename(module.__file__)
        for module in (streaming, trace_module)
    }
    complete = Trace.complete.__code__
    fraction_new = fractions.Fraction.__new__.__code__
    completing = 0

    def count(frame, event, arg):
        nonlocal completing
        code = frame.f_code
        if event == "call":
            if code is complete:
                completing += 1
            elif code is fraction_new and completing:
                return "Fraction in Trace.complete"
            name = files.get(code.co_filename)
            if name is not None:
                return name, code.co_name
        elif event == "return" and code is complete:
            completing -= 1

    result, calls = profiled(lambda: run(spec), count)
    return calls, result


@pytest.fixture(scope="module")
def soak():
    return profiled_soak(2000)


def test_no_fraction_is_built_while_an_op_completes(soak):
    calls, result = soak
    assert result.ops_completed() == 2000 and result.online.atomic
    assert calls["Fraction in Trace.complete"] == 0   # once 4002


def test_the_entry_points_are_called_once_per_wave(soak):
    calls, _ = soak
    waves = calls["trace.py", "complete"]
    assert waves == 2000 // 16       # every wave is a whole batch here
    assert calls["trace.py", "begin"] == waves
    assert calls["streaming.py", "on_begin"] == waves
    assert calls["streaming.py", "on_complete"] == waves
    # The accumulator's and its reservoir's: one each a wave (one each
    # an op, before waves).
    assert calls["streaming.py", "observe"] == 2 * waves


def test_calls_per_completed_op_in_the_accounting_path(soak):
    calls, result = soak
    ops = result.ops_completed()
    # Named functions only: whether a comprehension is a call depends on
    # the interpreter (inlined from 3.12 on).
    named = sum(
        n for key, n in calls.items()
        if isinstance(key, tuple) and not key[1].startswith("<")
    )
    # Per op: the rule and its one or two bounds, and — unless the floor
    # stood still and nothing landed below it — one prune; per wave of
    # 16: the trace's begin and complete, on_begin, on_complete and two
    # observes.  3.78 calls an op here (CPython 3.11), sweeps and the
    # end-of-run summary included; 9.97 when each of the six was called
    # per op.
    # 0.69 prunes an op (0.89 while every append cleared ``pruned_at``),
    # and ``_state`` only for new keys (0.37 an op when every write's
    # begin called it).
    assert calls["streaming.py", "prune"] < 0.75 * ops
    assert calls["streaming.py", "_state"] < ops / 50
    assert named <= 4.5 * ops
