"""Work-count regression for the message path — no wall clock.

A message used to cost eight Python calls inside ``repro/sim``:
``Process.send -> Network.send -> _resolve -> _schedule_delivery ->
Simulator.call_at`` to queue a closure, then ``<lambda> -> _deliver ->
Process.receive`` to run it.  A single is now a queue entry that
``Network.send`` pushes itself and the event loop hands to ``_deliver``,
which calls the receiver's ``on_message`` (send, deliver, plus the
sender's ``Process.send``); a broadcast is one ``send_all`` and one
queue entry per delivery instant, walked by one ``_deliver_block``: its
members cost nothing else per message inside ``repro/sim``.  A process
reads ``sim`` as a plain attribute, and a channel no rule can match
skips ``_resolve``.

A reply costs the client one ``AckSet.add``: the round's threshold
signals when the quorum is reached, not on every ack (814 signals on
this spec before, 214 now), and no label is formatted on the way (150
``str.format`` calls before).

A delivery costs what the run keeps of it: at either level no
``Message`` is built for a message that is delivered (the receiver is
handed ``(src, payload)``), only for one a rule holds or drops; FULL
logs one entry per send call and builds the records when the log is
read.  A write round waits on its ``2Δ``
timer and then on its quorum, and leaves no timer in a reference cycle
for the cyclic collector.  Once the
last rule window has closed (GST, for a lossy-until-GST run), a send
resolves no rule.
"""

import gc
import heapq
import os

import pytest

from repro.experiments import stress
from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import (
    Crash, Delay, Drop, FaultPlan, Hold, Propose, ScenarioSpec, run, run_grid,
)
from repro.sim import conditions, network, process, simulator, tasks
from repro.sim.conditions import Timer
from repro.sim.network import Message
from tests.counting import profiled

MESSAGE_PATH = {
    module.__file__: os.path.basename(module.__file__)
    for module in (simulator, network, process)
}
#: The simulator's other job — conditions signalling parked tasks — is
#: not the message path (about one call per message on this spec).
WAKE_SIDE = {"_signal", "_wake_tasks", "_advance", "_park_on", "_park_behind"}


def small_abd(**faults):
    spec = keyed_mix_spec(
        "abd", 4, writes=40, reads=60, readers=4, seed=3,
        trace_level="metrics", max_ops=100,
    )
    return spec.with_(faults=FaultPlan(**faults)) if faults else spec


def message_path(frame, event, arg):
    """``(file, function)`` of a Python-level call inside the three
    message-path files — a queue push there as ``(file, "heappush")``."""
    name = MESSAGE_PATH.get(frame.f_code.co_filename)
    if name is not None:
        if event == "call":
            return name, frame.f_code.co_name
        if event == "c_call" and arg is heapq.heappush:
            return name, "heappush"


def path_calls(calls):
    return sum(
        n for (_, name), n in calls.items()
        if name not in WAKE_SIDE and name != "heappush"
    )


def test_a_broadcast_is_one_queue_entry():
    result, calls = profiled(lambda: run(small_abd()), message_path)
    net = result.adapter.network
    assert net.delivered_count == net.sent_count > 1000
    # Half of this spec's messages are members of broadcasts of five:
    # 6 queue entries per 10 messages, where each used to have its own.
    assert calls["network.py", "heappush"] <= 0.62 * net.sent_count
    broadcasts = calls["network.py", "send_all"]
    assert calls["network.py", "_deliver_block"] == broadcasts > 0
    assert calls["process.py", "send_all"] == broadcasts
    # The replies are singles: one send, one entry, one _deliver each.
    singles = calls["network.py", "send"]
    assert singles == calls["process.py", "send"] < net.sent_count
    assert calls["network.py", "_deliver"] == singles
    # The deliveries hand the message to ``on_message`` themselves.
    assert ("process.py", "receive") not in calls
    # Everything else the three files do — set-up and the timers of 100
    # operations included — fits in 2 calls a message (1.91); the
    # ``Process.receive`` hop and the ``sim`` property needed 3.03 on
    # this spec, one entry per message 3.93, a closure per message 8.33.
    assert path_calls(calls) <= 2.0 * net.delivered_count
    # No message is scheduled through call_at, no closure is built to
    # bind one, and a rule-free network resolves no rule.
    assert calls["simulator.py", "call_at"] < net.sent_count / 10
    assert calls["network.py", "_resolve"] == 0
    lambdas = [key for key in calls if key[1] == "<lambda>"]
    assert lambdas == []


def test_the_update_flood_is_a_tenth_of_an_entry_per_message():
    # rqs-consensus, best case: every update goes to 8 acceptors and 3
    # learners at once.
    result, calls = profiled(lambda: run(ScenarioSpec(
        "rqs-consensus", rqs="example6", workload=(Propose(0.0, "V"),),
        horizon=60.0,
    )), message_path)
    net = result.adapter.network
    assert net.sent_count > 5000
    assert calls["network.py", "heappush"] <= 0.2 * net.sent_count
    # 0.29 (1.29 with the ``Process.receive`` hop).
    assert path_calls(calls) <= 0.35 * net.delivered_count
    assert ("process.py", "receive") not in calls
    assert calls["simulator.py", "call_at"] < net.sent_count / 10


def test_rules_are_resolved_exactly_once_per_send():
    # At FULL, so the log says which channel every message took.
    result, calls = profiled(lambda: run(small_abd(asynchrony=(
        Delay(2.0, src=(1,)), Delay(0.5, dst=(2,), after=10.0, until=60.0),
    )).with_(trace_level="full")), message_path)
    net = result.adapter.network
    assert net.sent_count > 1000
    # Once per message on a channel some rule could match, and once per
    # other channel — the first time, to index it: 322 + 40 of 1 610.
    candidates = net._rule_index
    ruled = sum(1 for m in net.log if candidates[m.src, m.dst])
    unruled = sum(1 for channel in candidates.values() if not channel)
    assert 0 < ruled < net.sent_count and unruled > 0
    assert calls["network.py", "_resolve"] == ruled + unruled
    # The index has matched the channel: what is left of a rule is
    # tested in place.
    assert calls["network.py", "matches"] == 0
    # The rules split some broadcasts over two instants; no message has
    # an entry of its own for that.
    broadcasts = calls["network.py", "send_all"]
    assert broadcasts < calls["network.py", "_deliver_block"] <= 2 * broadcasts
    assert (calls["network.py", "heappush"]
            == calls["network.py", "send"]
            + calls["network.py", "_deliver_block"])
    assert [key for key in calls if key[1] == "<lambda>"] == []


def test_no_rule_is_resolved_once_the_last_window_closes():
    """E9's eventual-synchrony cell drops every message sent before GST
    (40): the 72 sends before it are resolved, the 8 512 after it take
    the rule-free path (each called ``_resolve`` before)."""
    def count(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "_resolve"
                and code.co_filename == network.__file__):
            return "after GST" if frame.f_locals["time"] >= 40.0 else "before"

    sweep, calls = profiled(
        lambda: run_grid(stress.liveness_grid(40.0, 2000.0)), count
    )
    cell, = sweep.cells
    net = cell.result.adapter.network
    assert sweep.verdict_counts() == {"live": 1}
    assert (net.sent_count, net.delivered_count, net.dropped_count,
            net.held_count) == (8584, 8512, 72, 0)
    assert calls == {"before": 72}


def test_a_quorum_round_signals_once_and_formats_no_label():
    files = {module.__file__ for module in (conditions, simulator, tasks)}

    def count(frame, event, arg):
        if frame.f_code.co_filename in files:
            if event == "call":
                return frame.f_code.co_name
            if event == "c_call" and getattr(arg, "__name__", "") == "format":
                return "format"

    def probed():
        result = run(small_abd())
        return result, repr(result.adapter.readers[0]._acks(0, 0, "w").at_least(3))

    (result, probe), calls = profiled(probed, count)
    rounds = sum(
        result.trace.accumulator(kind).rounds_sum for kind in result.op_kinds()
    )
    # Every quorum round's threshold signals once, at its crossing, and
    # every timer once when it is set (214 <= 161 + 64).
    assert 0 < calls["signal"] <= rounds + calls["timer_at"]
    assert calls["_signal"] <= calls["signal"]
    # Labels exist only when asked for: the one repr above reads two,
    # the threshold's and its set's.
    assert probe == "SizeAtLeast(abd key=0 ts=0 w>=3)"
    assert calls["label"] == 2 and calls["format"] == 1


def constructions(*classes):
    """Count every Python-level ``__init__`` of ``classes``, by the
    ``__init__``'s qualified name."""
    codes = {cls.__init__.__code__: cls.__init__.__qualname__
             for cls in classes}

    def count(frame, event, arg):
        if event == "call":
            return codes.get(frame.f_code)

    return count


def staircase_writes():
    """Unbatched rqs-storage writes paying the 1/2/3-round staircase:
    one server down from the start, two more crashing mid-run."""
    return keyed_mix_spec(
        "rqs-storage", 4, writes=45, reads=15, readers=2, seed=3,
        trace_level="metrics", max_ops=60,
    ).with_(faults=FaultPlan(crashes=(
        Crash(1, 0.0), Crash(2, 20.0), Crash(3, 40.0),
    )))


def test_a_metrics_delivery_builds_no_message():
    result, calls = profiled(lambda: run(small_abd()), constructions(Message))
    net = result.adapter.network
    assert net.delivered_count == net.sent_count > 1000
    assert net.held_count + net.dropped_count == 0
    assert calls["Message.__init__"] == 0


WITHHELD = (
    Hold(dst=(2,), after=20.0, until=30.0),
    Drop(dst=(3,), after=40.0, until=50.0),
)


def test_a_metrics_message_a_rule_withholds_has_a_record():
    result, calls = profiled(
        lambda: run(small_abd(asynchrony=WITHHELD)), constructions(Message)
    )
    net = result.adapter.network
    assert net.held_count > 0 and net.dropped_count > 0
    assert calls["Message.__init__"] == net.held_count + net.dropped_count
    # The held ones stay releasable; the dropped ones are not kept.
    assert len(net.in_transit) == net.held_count and net._sends == []


@pytest.mark.parametrize("rules", [(), WITHHELD], ids=["rule-free", "ruled"])
def test_a_full_run_builds_a_record_only_for_what_a_rule_withholds(rules):
    result, calls = profiled(
        lambda: run(small_abd(asynchrony=rules).with_(trace_level="full")),
        constructions(Message),
    )
    net = result.adapter.network
    withheld = net.held_count + net.dropped_count
    assert (net.held_count > 0 and net.dropped_count > 0) == bool(rules)
    # During the run only the held and dropped messages get a record;
    # the log builds the others when it is read.
    assert calls["Message.__init__"] == withheld
    assert len(net.log) == net.sent_count > 1000


def test_every_write_round_waits_its_own_timer():
    result, calls = profiled(
        lambda: run(staircase_writes()), constructions(Timer)
    )
    write = result.latency_streaming("write")
    assert (write.min_rounds, write.max_rounds) == (1, 3)
    # Every round 1 and 2 armed its 2Δ timer.
    assert calls["Timer.__init__"] > write.count


def test_a_write_round_leaves_no_timer_to_the_cyclic_collector():
    gc.collect()
    debug = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        result = run(staircase_writes())
        gc.collect()
        # What the collector found unreachable during and after the run
        # (``result`` keeps the run's own world reachable).
        cyclic = [type(garbage).__name__ for garbage in gc.garbage
                  if isinstance(garbage, Timer)]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert result.latency_streaming("write").max_rounds == 3
    assert cyclic == []
