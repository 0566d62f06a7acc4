"""Work-count regression for the update cascade — no wall clock.

Handling one ``Update`` used to cost one frozenset test per quorum of
the system (93 on example6) in the acceptor's cascade, up to as many
``_trigger_update`` calls, and another walk in the decide rules.  On
the index it is at most one containment probe for the decide rule and
one for the cascade, each over the quorums through the sender that just
arrived — and none at all for a sender already counted.
"""

from collections import Counter

import pytest

from repro.consensus.decisions import DecisionTracker
from repro.core.rqs import QuorumIndex
from repro.experiments import consensus_latency
from repro.scenarios import run
from tests.counting import counted

PROBES = ("newly_responding", "responding", "fits")


def _best_case(quorum_class):
    grid = consensus_latency.GRID
    (cell,) = [
        c for c in grid.cells() if c.point["quorum_class"] == quorum_class
    ]
    return grid.spec_for(cell)


@pytest.fixture
def counters(monkeypatch):
    """Count the index's containment probes (and the quorum masks each
    one looks at) and the updates handled by acceptors and learners."""
    calls, examined = Counter(), Counter()

    def looked_at(name):
        def tally(index, mask, *args):
            if name == "newly_responding":
                new, cls = args[0], (args[1] if len(args) > 1 else 3)
                return {name: sum(1 for q in index.masks[cls]
                                  if q & new or new & (new - 1))}
            return {name: len(index.masks[args[0] if args else 3])}

        return tally

    for name in PROBES:
        monkeypatch.setattr(QuorumIndex, name, counted(
            QuorumIndex, name, calls
        ))
        monkeypatch.setattr(QuorumIndex, name, counted(
            QuorumIndex, name, examined, looked_at(name)
        ))
    monkeypatch.setattr(DecisionTracker, "record", counted(
        DecisionTracker, "record", calls, lambda *args: ["updates"]
    ))
    return calls, examined


def test_class3_best_case_probes_per_update(counters):
    """Three crashes: every update comes from a sender not yet counted,
    the worst case for the incremental scan."""
    calls, examined = counters
    result = run(_best_case(3))
    assert result.worst_learner_delay == 4.0          # the class-3 path ran
    assert len(result.adapter.rqs.quorums) == 93
    updates = calls["updates"]
    assert updates > 100
    # At most one probe for the decide rule and one for the cascade
    # (decision messages included); the only scans of the whole system
    # are the proposer's, one per decision it is sent ...
    assert calls["newly_responding"] <= 2 * updates
    assert calls["responding"] + calls["fits"] <= 8
    # ... and each probe looks only at the quorums through one server:
    # the walk looked at 93 per update in the cascade alone.
    assert sum(examined.values()) < 64 * updates


def test_class1_best_case_duplicate_senders_cost_nothing(counters):
    """No crash: 8 acceptors x 93 quorums of update2 traffic, almost all
    of it from senders already counted for their statement."""
    calls, examined = counters
    result = run(_best_case(1))
    assert result.worst_learner_delay == 2.0
    updates = calls["updates"]
    assert updates > 8000
    assert calls["responding"] + calls["fits"] <= 8
    assert calls["newly_responding"] * 20 < updates
    assert sum(examined.values()) < 3 * updates       # was > 93 * updates


def test_a_broadcast_is_one_send_all(monkeypatch):
    """An acceptor's update / decision and a learner's pull are
    broadcasts: one crashed-and-bound check each (``Process.send_all``),
    not one per target — ``Process.send`` is left with the
    point-to-point replies.  On the way in, a broadcast's members reach
    their handlers through ``Network._deliver_block``, a reply through
    ``Network._deliver``, and nothing else stands between."""
    from repro.consensus.messages import Decision, DecisionPull, Update
    from repro.sim.network import Network
    from repro.sim.process import Process

    single, broadcast = Counter(), Counter()
    unicast, block = Counter(), Counter()
    for owner, name, counter, tally in (
        (Process, "send", single, lambda self, dst, payload: [type(payload)]),
        (Process, "send_all", broadcast,
         lambda self, destinations, payload: {
             type(payload): len(destinations)
         }),
        (Network, "_deliver", unicast,
         lambda self, message: [type(message.payload)]),
        (Network, "_deliver_block", block,
         lambda self, members, room: [type(m.payload)
                                      for m in members[-room:]]),
    ):
        monkeypatch.setattr(owner, name, counted(owner, name, counter, tally))
    result = run(_best_case(3))
    adapter = result.adapter
    targets = len(adapter.rqs.servers) + len(adapter.learners)
    assert single[Update] == 0 and broadcast[Update] >= 15 * targets
    assert broadcast[Update] % targets == 0
    assert broadcast[Decision] % len(adapter.rqs.servers) == 0
    assert broadcast[Decision] > 0
    # Every message of the run is accounted for by the two counters.
    sent = Counter(type(m.payload) for m in adapter.network.log)
    assert sent[Update] == broadcast[Update]
    assert sent[Decision] == broadcast[Decision] + single[Decision]
    # The pulls sent one by one are the proposer's (interleaved with its
    # syncs); a learner's would be a broadcast.
    assert single[DecisionPull] == len(adapter.rqs.servers)
    # Every update sent was delivered as a member of a block (those to
    # the three crashed acceptors too: dropped by the hop, not by a rule).
    assert block[Update] == broadcast[Update] and unicast[Update] == 0
    assert sum(unicast.values()) + sum(block.values()) == (
        adapter.network.delivered_count
    )
