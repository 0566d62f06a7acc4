"""Tests for the Mimic behaviour (payload-transforming Byzantine)."""

from repro.sim.byzantine import Mimic
from repro.sim.network import Network
from repro.sim.process import ByzantineProcess, Process
from repro.sim.simulator import Simulator


class Collector(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []

    def on_message(self, message):
        self.seen.append(message.payload)


def test_mimic_transforms_outgoing_payloads():
    sim = Simulator()
    net = Network(sim, delta=1.0)

    def benign(process, message):
        process.send(message.src, ("reply", message.payload))

    def corrupt(dst, payload):
        kind, value = payload
        return (kind, value * 10)

    byz = ByzantineProcess("b", Mimic(benign, corrupt)).bind(net)
    client = Collector("c").bind(net)
    client.send("b", 4)
    sim.run_to_completion()
    assert client.seen == [("reply", 40)]


def test_mimic_can_suppress_sends():
    sim = Simulator()
    net = Network(sim, delta=1.0)

    def benign(process, message):
        process.send(message.src, ("reply", message.payload))

    byz = ByzantineProcess("b", Mimic(benign, lambda d, p: None)).bind(net)
    client = Collector("c").bind(net)
    client.send("b", 1)
    sim.run_to_completion()
    assert client.seen == []


def test_mimic_transforms_broadcasts_too():
    sim = Simulator()
    net = Network(sim, delta=1.0)

    def benign(process, message):
        process.send_all(["c", "d"], message.payload)

    def corrupt(dst, payload):
        return None if dst == "d" else payload + 1

    ByzantineProcess("b", Mimic(benign, corrupt)).bind(net)
    c, d = Collector("c").bind(net), Collector("d").bind(net)
    c.send("b", 4)
    sim.run_to_completion()
    assert (c.seen, d.seen) == ([5], [])
