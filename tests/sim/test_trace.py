"""Tests for operation traces."""

from repro.sim.trace import Trace


def test_begin_complete_roundtrip():
    trace = Trace()
    record, = trace.begin("write", "w", 1.0, (("v", 0),))
    assert not record.complete
    trace.complete((record,), 3.0, ("OK",), 2)
    assert record.complete and record.rounds == 2
    assert trace.completed() == (record,)


def test_a_wave_is_its_elements_in_order():
    trace = Trace()
    first, second = trace.begin("write", "w", 1.0, (("a", "x"), ("b", "y")))
    assert (first.op_id, first.value, first.key) == (0, "a", "x")
    assert (second.op_id, second.value, second.key) == (1, "b", "y")
    trace.complete([first, second], 4.0, ("OK", "OK"), 2)
    assert trace.completed_counts == {"write": 2}
    assert trace.waves("write") == {2: 1}
    accumulator = trace.accumulator("write")
    assert (accumulator.count, accumulator.rounds_sum) == (2, 4)
    assert accumulator.time_sum == 6


def test_observers_take_whole_waves():
    trace = Trace(retain=False)
    seen = []
    trace.subscribe(
        on_begin=lambda wave: seen.append(("begin", len(wave))),
        on_complete=lambda wave: seen.append(("complete", len(wave))),
    )
    wave = trace.begin("read", "r", 0.0, [(None, key) for key in range(3)])
    trace.complete(wave[:2], 1.0, ("a", "b"), 1)
    trace.complete(wave[2:], 2.0, ("c",), 2)
    assert seen == [("begin", 3), ("complete", 2), ("complete", 1)]
    assert trace.waves("read") == {1: 1, 2: 1}
    assert trace.records == ()


def test_precedence():
    trace = Trace()
    first, = trace.begin("write", "w", 0.0, ((None, 0),))
    trace.complete((first,), 1.0, (None,), 0)
    second, = trace.begin("read", "r", 2.0, ((None, 0),))
    trace.complete((second,), 3.0, (None,), 0)
    assert first.precedes(second)
    assert not second.precedes(first)


def test_incomplete_operations_precede_nothing():
    trace = Trace()
    pending, later = (
        trace.begin(kind, kind[0], at, ((None, 0),))[0]
        for kind, at in (("write", 0.0), ("read", 100.0))
    )
    assert not pending.precedes(later)


def test_of_kind_filter():
    trace = Trace()
    trace.begin("write", "w", 0.0, ((None, 0),))
    trace.begin("read", "r", 0.0, ((None, 0),))
    assert len(trace.of_kind("write")) == 1
    assert trace.begun_total() == 2
    assert all(r.kind == "read" for r in trace.of_kind("read"))
