"""Tests for process semantics: crash and Byzantine behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim.byzantine import Silent, SilentAfter, StateForger
from repro.sim.network import Network
from repro.sim.process import ByzantineProcess, Process
from repro.sim.simulator import Simulator


class Echo(Process):
    def on_message(self, message):
        self.send(message.src, ("echo", message.payload))


class Collector(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []

    def on_message(self, message):
        self.seen.append(message.payload)


def wired():
    sim = Simulator()
    net = Network(sim, delta=1.0)
    return sim, net


class TestCrash:
    def test_crashed_process_stops_receiving(self):
        sim, net = wired()
        echo = Echo("e").bind(net)
        client = Collector("c").bind(net)
        echo.crash()
        client.send("e", "hello")
        sim.run_to_completion()
        assert client.seen == []

    def test_crashed_process_stops_sending(self):
        sim, net = wired()
        echo = Echo("e").bind(net)
        client = Collector("c").bind(net)
        client.send("e", "one")
        sim.call_at(0.5, echo.crash)
        sim.run_to_completion()
        assert client.seen == []  # echo crashed before replying at 1.0

    def test_scheduled_crash(self):
        sim, net = wired()
        echo = Echo("e").bind(net)
        client = Collector("c").bind(net)
        echo.schedule_crash(5.0)
        client.send("e", "before")
        sim.run(until=3.0)
        assert client.seen == [("echo", "before")]
        sim.run(until=6.0)
        client.send("e", "after")
        sim.run_to_completion()
        assert len(client.seen) == 1
        assert echo.crash_time == 5.0

    def test_unbound_process_cannot_send(self):
        lonely = Process("x")
        with pytest.raises(SimulationError):
            lonely.send("y", "msg")
        with pytest.raises(SimulationError):
            lonely.send_all(["y"], "msg")

    def test_send_all_broadcasts_unless_crashed(self):
        sim, net = wired()
        echo = Echo("e").bind(net)
        client = Collector("c").bind(net)
        client.send_all(["e", "e"], "twice")
        sim.run_to_completion()
        assert client.seen == [("echo", "twice")] * 2
        client.crash()
        client.send_all(["e"], "never")
        assert net.sent_count == 4


class TestByzantine:
    def test_default_byzantine_is_silent(self):
        sim, net = wired()
        byz = ByzantineProcess("b").bind(net)
        client = Collector("c").bind(net)
        client.send("b", "ping")
        sim.run_to_completion()
        assert client.seen == [] and not byz.benign

    def test_silent_after_behaves_then_stops(self):
        sim, net = wired()

        def benign(process, message):
            process.inject(message.src, ("ok", message.payload))

        byz = ByzantineProcess("b", SilentAfter(benign, 5.0)).bind(net)
        client = Collector("c").bind(net)
        client.send("b", 1)
        sim.run(until=6.0)
        client.send("b", 2)  # delivered at 7.0, after the trigger
        sim.run_to_completion()
        assert client.seen == [("ok", 1)]

    def test_state_forger_mutates_at_trigger(self):
        sim, net = wired()

        def benign(process, message):
            process.inject(message.src, process.value)

        def forge(process):
            process.value = "forged"

        byz = ByzantineProcess("b", StateForger(benign, forge, 2.0)).bind(net)
        byz.value = "honest"
        client = Collector("c").bind(net)
        client.send("b", "q1")
        sim.run(until=1.5)
        sim.run(until=3.0)
        client.send("b", "q2")
        sim.run_to_completion()
        assert client.seen == ["honest", "forged"]

    def test_inject_bypasses_crash_check_but_not_binding(self):
        byz = ByzantineProcess("b", Silent())
        with pytest.raises(SimulationError):
            byz.inject("x", "forged")
