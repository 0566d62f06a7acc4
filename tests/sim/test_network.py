"""Tests for the network transport and rule engine."""

from functools import partial

import pytest

from repro.errors import SimulationError
from repro.scenarios import FaultPlan
from repro.sim.network import DROP, HOLD, Delay, Drop, Hold, Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Sink(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []

    def on_message(self, src, payload):
        self.seen.append((payload, self.sim.now))


def make_net(rules=(), delta=1.0):
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
        assert [m.payload for m in net.log
                if (m.src, m.dst) == ("a", "b")] == [1, 3]

    def test_a_metrics_network_logs_nothing(self):
        sim = Simulator()
        net = Network(sim, trace_level="metrics")
        Sink("a").bind(net)
        net.send("a", "a", 1)
        net.send_all("a", ["a"], 2)
        assert net.log == [] and net.sent_count == 2


class TestRules:
    def test_delay_rule(self):
        sim, net, a, b = make_net([Delay(5.0, src=("a",))])
        net.send("a", "b", "slow")
        sim.run_to_completion()
        assert b.seen == [("slow", 5.0)]

    def test_drop_rule(self):
        sim, net, a, b = make_net([Drop(dst=("b",))])
        message = net.send("a", "b", "lost")
        sim.run_to_completion()
        assert message.dropped and b.seen == []
        assert [m for m in net.log if m.dropped] == [message]
        assert net.dropped_count == 1

    def test_hold_and_release(self):
        sim, net, a, b = make_net([Hold(dst=("b",))])
        message = net.send("a", "b", "held")
        sim.run_to_completion()
        assert message.held and b.seen == []
        released = net.release_held()
        assert released == 1
        sim.run_to_completion()
        assert b.seen == [("held", 0.0)]

    def test_release_with_predicate(self):
        sim, net, a, b = make_net([Hold(dst=("b",))])
        net.send("a", "b", "one")
        net.send("a", "b", "two")
        released = net.release_held(lambda m: m.payload == "two")
        assert released == 1
        sim.run_to_completion()
        assert [p for p, _ in b.seen] == ["two"]
        assert len(net.in_transit) == 1

    def test_time_window_rules(self):
        sim, net, a, b = make_net([Drop(after=0.0, until=5.0)])
        net.send("a", "b", "early")
        sim.run(until=6.0)
        net.send("a", "b", "late")
        sim.run_to_completion()
        assert [p for p, _ in b.seen] == ["late"]

    def test_payload_predicate(self):
        sim, net, a, b = make_net(
            [Hold(payload=lambda p: p == "secret")]
        )
        net.send("a", "b", "secret")
        net.send("a", "b", "public")
        sim.run_to_completion()
        assert [p for p, _ in b.seen] == ["public"]

    def test_first_matching_rule_wins(self):
        sim, net, a, b = make_net([Delay(2.0), Delay(5.0)])
        net.send("a", "b", "x")
        sim.run_to_completion()
        assert b.seen == [("x", 2.0)]


class TestDelaysAreValidatedWhereDeclared:
    """A bad delay is refused before it can fail a send half-way."""

    @pytest.mark.parametrize("bad", [-2.0, float("nan"), "later", None])
    def test_a_negative_or_non_numeric_delay_is_refused_at_the_rule(self, bad):
        # The literal itself raises where it is written, not when an
        # adapter builds the network or a matching send runs.
        with pytest.raises(SimulationError):
            Delay(bad, src=("a",))

    def test_delay_rule_refuses_a_negative_delay(self):
        with pytest.raises(SimulationError):
            Delay(-2.0, src=["a"])

    def test_rule_accepts_every_declared_action(self):
        assert Hold().action == HOLD and Drop().action == DROP
        assert Delay(0).action == 0.0 and isinstance(Delay(2).action, float)
        # The literal keeps what was written; the action is the float.
        assert Delay(2).delay == 2 and repr(Delay(2)).startswith("Delay(delay=2,")

    def test_release_held_refuses_a_negative_delay_before_releasing(self):
        sim, net, a, b = make_net([Hold(dst=("b",))])
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
        sim, net, a, b = make_net([Drop(dst=("a",))])
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
        # What was sent before the refusal is logged, and only that.
        assert [(m.dst, m.deliver_time) for m in net.log] == [("b", 1.0)]

    def test_the_log_keeps_the_destinations_as_they_were_sent(self):
        sim, net, a, b = make_net()
        destinations = ["a", "b"]
        net.send_all("a", destinations, "hi")
        destinations[:] = ["b", "b", "b"]
        assert [m.dst for m in net.log] == ["a", "b"]
        net.send_all("b", iter(["b"]), "once")     # any iterable
        assert [(m.src, m.dst) for m in net.log][2:] == [("b", "b")]

    def test_the_log_shows_each_member_its_fate(self):
        sim, net, a, b = make_net([
            Delay(3.0, dst=("a",)), Hold(dst=("b",), until=1.0),
        ])
        net.send_all("a", ("a", "b"), "x")
        held = net.send("a", "b", "y")
        assert net.send("b", "a", "z") is None      # queued: no record
        fates = [(m.dst, m.payload, m.deliver_time, m.held) for m in net.log]
        assert fates == [
            ("a", "x", 3.0, False), ("b", "x", None, True),
            ("b", "y", None, True), ("a", "z", 3.0, False),
        ]
        # A held member is its live record: the release shows in the log.
        assert net.log[2] is held and net.release_held(delay=0.5) == 2
        assert [m.deliver_time for m in net.log] == [3.0, 0.5, 0.5, 3.0]
        sim.run_to_completion()
        assert b.seen == [("x", 0.5), ("y", 0.5)]


class TestChannelsAreCollections:
    """``src`` / ``dst`` name processes by collection: a bare string
    would be matched letter by letter and the rule would hold nothing."""

    @pytest.mark.parametrize(
        "rule", [Hold, Drop, partial(Delay, 1.0)], ids=["Hold", "Drop", "Delay"]
    )
    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_a_bare_string_end_is_refused(self, rule, end):
        with pytest.raises(SimulationError, match=r"\('writer',\)"):
            rule(**{end: "writer"})

    def test_a_plan_holding_the_writer_by_name_is_refused(self):
        # The vacuous adversary: this plan used to hold nothing, since
        # "writer" matched as the set of its letters.
        from repro.scenarios import Hold as PlanHold
        with pytest.raises(SimulationError):
            FaultPlan(asynchrony=(PlanHold(src="writer"),))

    def test_the_plan_hands_its_own_literals_to_the_network(self):
        held, slow = Hold(src=("writer",)), Delay(3.0, dst=(4,))
        rules = FaultPlan(asynchrony=(held, slow)).rules()
        assert rules[0] is held and rules[1] is slow


class TestRuleIndex:
    """The per-(src, dst) rule-resolution cache."""

    def test_rules_are_fixed_at_construction(self):
        declared = [Delay(2.0)]
        sim, net, a, b = make_net(rules=declared)
        declared.append(Drop())                 # no effect on the network
        net.send("a", "b", "x")
        sim.run_to_completion()
        assert b.seen == [("x", 2.0)] and net.dropped_count == 0

    def test_a_channel_is_indexed_once(self):
        sim, net, a, b = make_net([Drop(src=("b",)), Delay(2.0, dst=("b",))])
        for _ in range(3):
            net.send("a", "b", "x")
        assert net._rule_index == {("a", "b"): (Delay(2.0, dst=("b",)),)}
