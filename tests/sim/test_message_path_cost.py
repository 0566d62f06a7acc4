"""Work-count regression for the message path — no wall clock.

A message used to cost eight Python calls inside ``repro/sim``:
``Process.send -> Network.send -> _resolve -> _schedule_delivery ->
Simulator.call_at`` to queue a closure, then ``<lambda> -> _deliver ->
Process.receive`` to run it.  A delivery is now a queue entry that
``Network.send`` pushes itself and the event loop hands straight to
``_deliver``: send, deliver, receive, plus the sender's
``Process.send`` (shared by a whole broadcast under ``send_all``).
"""

import os
import sys
from collections import Counter

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import Delay, FaultPlan, run
from repro.sim import network, process, simulator

MESSAGE_PATH = {
    module.__file__: os.path.basename(module.__file__)
    for module in (simulator, network, process)
}
#: The simulator's other job — conditions signalling parked tasks — is
#: not the message path (about one call per message on this spec).
WAKE_SIDE = {"_signal", "_wake_tasks", "_advance", "_park_on", "_unpark"}


def small_abd(**faults):
    spec = keyed_mix_spec(
        "abd", 4, writes=40, reads=60, readers=4, seed=3,
        trace_level="metrics", max_ops=100,
    )
    return spec.with_(faults=FaultPlan(**faults)) if faults else spec


def profiled(spec):
    """``(file, function) -> Python-level calls`` inside the three
    message-path files while ``spec`` runs, and the run's result."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = MESSAGE_PATH.get(frame.f_code.co_filename)
            if name is not None:
                calls[name, frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = run(spec)
    finally:
        sys.setprofile(None)
    return calls, result


def test_a_delivered_message_costs_at_most_four_calls():
    calls, result = profiled(small_abd())
    net = result.adapter.network
    assert net.delivered_count == net.sent_count > 1000
    # Everything else the three files do — set-up, the timers and the
    # ``sim`` lookups of 100 operations included — fits in four calls a
    # message (3.93); the parent needed 8.33 on this spec.
    path = sum(n for (_, name), n in calls.items() if name not in WAKE_SIDE)
    assert path <= 4 * net.delivered_count
    assert calls["network.py", "send"] == net.sent_count
    assert calls["network.py", "_deliver"] == net.delivered_count
    assert calls["process.py", "receive"] == net.delivered_count
    # A broadcast checks crashed/bound once: fewer Process.send calls
    # than messages.
    assert calls["process.py", "send_all"] > 0
    assert calls["process.py", "send"] < net.sent_count
    # No message is scheduled through call_at, no closure is built to
    # bind one, and a rule-free network resolves no rule.
    assert calls["simulator.py", "call_at"] < net.sent_count / 10
    assert calls["network.py", "_resolve"] == 0
    lambdas = [key for key in calls if key[1] == "<lambda>"]
    assert lambdas == []


def test_rules_are_resolved_exactly_once_per_send():
    calls, result = profiled(small_abd(asynchrony=(
        Delay(2.0, src=(1,)), Delay(0.5, dst=(2,), after=10.0, until=60.0),
    )))
    net = result.adapter.network
    assert net.sent_count > 1000
    assert calls["network.py", "_resolve"] == net.sent_count
    assert calls["network.py", "send"] == net.sent_count
    assert [key for key in calls if key[1] == "<lambda>"] == []
