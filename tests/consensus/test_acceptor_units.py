"""Unit tests for acceptor internals (guards and cascade details)."""

from repro.core.constructions import threshold_rqs
from repro.crypto.signatures import SignatureService
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.consensus.acceptor import Acceptor
from repro.consensus.messages import Prepare, Update
from repro.sim.process import Process


class Probe(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []

    def on_message(self, src, payload):
        self.got.append(payload)


def wire(n=8):
    rqs = threshold_rqs(n, 3, 1, 1, 2)
    sim = Simulator()
    net = Network(sim, delta=1.0)
    service = SignatureService()
    proposers = ("p1", "p2")
    learners = ("l1",)
    acceptors = {
        aid: Acceptor(aid, rqs, proposers, learners, service).bind(net)
        for aid in sorted(rqs.ground_set)
    }
    p1 = Probe("p1").bind(net)
    Probe("p2").bind(net)
    l1 = Probe("l1").bind(net)
    return rqs, sim, net, acceptors, p1, l1


def test_prepare_in_init_view_sets_state_and_broadcasts():
    rqs, sim, net, acceptors, p1, l1 = wire()
    net.send("p1", 1, Prepare("v", 0, None, None))
    sim.run_to_completion()
    acceptor = acceptors[1]
    assert acceptor.prep == "v" and 0 in acceptor.prep_view
    assert any(isinstance(m, Update) and m.step == 1 for m in l1.got)


def test_second_prepare_in_same_view_ignored():
    rqs, sim, net, acceptors, p1, l1 = wire()
    net.send("p1", 1, Prepare("v", 0, None, None))
    sim.run_to_completion()
    net.send("p2", 1, Prepare("w", 0, None, None))
    sim.run_to_completion()
    assert acceptors[1].prep == "v"  # the guard w ∈ Prepview ⇒ w < view


def test_prepare_for_other_view_ignored():
    rqs, sim, net, acceptors, p1, l1 = wire()
    net.send("p1", 1, Prepare("v", 3, None, None))
    sim.run_to_completion()
    assert acceptors[1].prep is None


def test_prepare_for_later_view_requires_proof():
    rqs, sim, net, acceptors, p1, l1 = wire()
    acceptors[1].view = 2  # manually advanced (as if by new_view)
    net.send("p1", 1, Prepare("v", 2, None, None))
    sim.run_to_completion()
    assert acceptors[1].prep is None  # p1 is not leader of view 2 (p2 is)


def test_update_cascade_requires_prepared_value():
    rqs, sim, net, acceptors, p1, l1 = wire()
    target = acceptors[1]
    quorum = next(iter(rqs.quorums))
    for sender in quorum:
        target._handle_update(sender, Update(1, "v", 0, None))
    # target never prepared "v": no 1-update happens
    assert target.update[1] is None


def test_update_cascade_fires_after_prepare():
    rqs, sim, net, acceptors, p1, l1 = wire()
    for aid in acceptors:
        net.send("p1", aid, Prepare("v", 0, None, None))
    sim.run_to_completion()
    target = acceptors[1]
    assert target.update[1] == "v"          # quorum of update1 arrived
    assert target.update_q[(1, 0)]           # with recorded quorums
    assert target.update[2] == "v"          # and the update2 cascade ran


def test_update3_sent_once_per_view():
    rqs, sim, net, acceptors, p1, l1 = wire()
    for aid in acceptors:
        net.send("p1", aid, Prepare("v", 0, None, None))
    sim.run_to_completion()
    update3s = [
        m for m in l1.got if isinstance(m, Update) and m.step == 3
    ]
    senders = len(acceptors)
    assert len(update3s) == senders  # exactly one per acceptor


def test_decision_quorum_stops_suspect_timer():
    rqs, sim, net, acceptors, p1, l1 = wire()
    for aid in acceptors:
        net.send("p1", aid, Prepare("v", 0, None, None))
    sim.run_to_completion()
    assert all(a._timer_stopped for a in acceptors.values())
    assert all(a.decided == "v" for a in acceptors.values())
