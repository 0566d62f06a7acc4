"""Tests for the network transport and rule engine."""

import pytest

from repro.errors import SimulationError
from repro.scenarios.faults import Delay
from repro.sim.network import (
    DROP,
    HOLD,
    Network,
    Rule,
    delay_rule,
    drop_rule,
    hold_rule,
)
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Sink(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []

    def on_message(self, message):
        self.seen.append((message.payload, self.sim.now))


def make_net(rules=None, delta=1.0):
    sim = Simulator()
    net = Network(sim, delta=delta, rules=rules)
    a = Sink("a").bind(net)
    b = Sink("b").bind(net)
    return sim, net, a, b


class TestTransport:
    def test_default_delta_delivery(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "hi")
        sim.run_to_completion()
        assert b.seen == [("hi", 1.0)]

    def test_rejects_unknown_destination(self):
        sim, net, a, b = make_net()
        with pytest.raises(SimulationError):
            net.send("a", "zz", "hi")

    def test_duplicate_registration_rejected(self):
        sim, net, a, b = make_net()
        with pytest.raises(SimulationError):
            Sink("a").bind(net)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(SimulationError):
            Network(Simulator(), delta=0.0)

    def test_messages_between(self):
        sim, net, a, b = make_net()
        net.send("a", "b", 1)
        net.send("b", "a", 2)
        net.send("a", "b", 3)
        assert [m.payload for m in net.messages_between("a", "b")] == [1, 3]


class TestRules:
    def test_delay_rule(self):
        sim, net, a, b = make_net([delay_rule(5.0, src={"a"})])
        net.send("a", "b", "slow")
        sim.run_to_completion()
        assert b.seen == [("slow", 5.0)]

    def test_drop_rule(self):
        sim, net, a, b = make_net([drop_rule(dst={"b"})])
        message = net.send("a", "b", "lost")
        sim.run_to_completion()
        assert message.dropped and b.seen == []
        assert net.dropped == [message]

    def test_hold_and_release(self):
        sim, net, a, b = make_net([hold_rule(dst={"b"})])
        message = net.send("a", "b", "held")
        sim.run_to_completion()
        assert message.held and b.seen == []
        released = net.release_held()
        assert released == 1
        sim.run_to_completion()
        assert b.seen == [("held", 0.0)]

    def test_release_with_predicate(self):
        sim, net, a, b = make_net([hold_rule(dst={"b"})])
        net.send("a", "b", "one")
        net.send("a", "b", "two")
        released = net.release_held(lambda m: m.payload == "two")
        assert released == 1
        sim.run_to_completion()
        assert [p for p, _ in b.seen] == ["two"]
        assert len(net.in_transit) == 1

    def test_time_window_rules(self):
        sim, net, a, b = make_net([drop_rule(after=0.0, until=5.0)])
        net.send("a", "b", "early")
        sim.run(until=6.0)
        net.send("a", "b", "late")
        sim.run_to_completion()
        assert [p for p, _ in b.seen] == ["late"]

    def test_payload_predicate(self):
        sim, net, a, b = make_net(
            [hold_rule(payload_predicate=lambda p: p == "secret")]
        )
        net.send("a", "b", "secret")
        net.send("a", "b", "public")
        sim.run_to_completion()
        assert [p for p, _ in b.seen] == ["public"]

    def test_later_rules_take_precedence(self):
        sim, net, a, b = make_net([delay_rule(5.0)])
        net.add_rule(delay_rule(2.0))
        net.send("a", "b", "x")
        sim.run_to_completion()
        assert b.seen == [("x", 2.0)]


class TestDelaysAreValidatedWhereDeclared:
    """A bad delay is refused before it can fail a send half-way."""

    @pytest.mark.parametrize("bad", [-2.0, float("nan"), "later", None])
    def test_a_negative_or_non_numeric_delay_is_refused_at_the_rule(self, bad):
        # At the parent delay_rule(-2.0, src=["a"]) was accepted and the
        # first matching send at now=5 raised after logging the message.
        with pytest.raises(SimulationError):
            Rule(bad, src=frozenset("a"))
        with pytest.raises(SimulationError):
            Delay(bad).to_rule()                   # the FaultPlan path

    def test_delay_rule_refuses_a_negative_delay(self):
        with pytest.raises(SimulationError):
            delay_rule(-2.0, src=["a"])

    def test_rule_accepts_every_declared_action(self):
        assert Rule(HOLD).action == HOLD and Rule(DROP).action == DROP
        assert Rule(0).action == 0.0 and isinstance(Rule(2).action, float)

    def test_release_held_refuses_a_negative_delay_before_releasing(self):
        sim, net, a, b = make_net([hold_rule(dst={"b"})])
        net.send("a", "b", "one")
        net.send("a", "b", "two")
        sim.run(until=5.0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(SimulationError):
                net.release_held(delay=bad)
        # Nothing was half-released: both are still held, listed once.
        assert [m.held for m in net.in_transit] == [True, True]
        assert net.release_held(delay=0.5) == 2 and net.in_transit == []
        assert net.release_held() == 0
        sim.run_to_completion()
        assert b.seen == [("one", 5.5), ("two", 5.5)]
        assert net.delivered_count == 2


class TestBroadcast:
    def test_send_all_is_that_many_sends_in_order(self):
        sim, net, a, b = make_net([drop_rule(dst={"a"})])
        net.send_all("a", ["b", "a", "b"], "hi")
        assert [(m.src, m.dst, m.dropped) for m in net.log] == [
            ("a", "b", False), ("a", "a", True), ("a", "b", False),
        ]
        sim.run_to_completion()
        assert b.seen == [("hi", 1.0), ("hi", 1.0)]
        assert (net.sent_count, net.delivered_count, net.dropped_count) == (3, 2, 1)

    def test_send_all_rejects_an_unknown_destination(self):
        sim, net, a, b = make_net()
        with pytest.raises(SimulationError):
            net.send_all("a", ["b", "ghost"], "hi")


class TestRuleIndex:
    """The per-(src, dst) rule-resolution cache and its invalidation."""

    def test_add_rule_invalidates_cached_channels(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "before")          # populates the (a, b) cache
        sim.run_to_completion()
        net.add_rule(drop_rule(src=("a",)))
        message = net.send("a", "b", "after")
        assert message.dropped
        assert net.dropped_count == 1

    def test_rules_attribute_is_read_only(self):
        sim, net, a, b = make_net(rules=[delay_rule(2.0)])
        assert len(net.rules) == 1
        with pytest.raises(AttributeError):
            net.rules = []
