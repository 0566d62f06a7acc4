"""Tests for process semantics: crashes and broadcasts."""

import pytest

from repro.errors import SimulationError
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Echo(Process):
    def on_message(self, src, payload):
        self.send(src, ("echo", payload))


class Collector(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []

    def on_message(self, src, payload):
        self.seen.append(payload)


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

    def test_unbound_process_has_no_simulator(self):
        lonely = Process("x")
        with pytest.raises(SimulationError, match="'x' is not bound"):
            lonely.sim.now
        with pytest.raises(SimulationError, match="'x' is not bound"):
            lonely.schedule_crash(1.0)
        sim, net = wired()
        assert lonely.bind(net).sim is sim

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

