"""The consensus learner (Figure 15, lines 51-53, 60, 101-103).

A learner decides via the same three update rules as acceptors, learns as
soon as it decides, and additionally learns upon receiving ``decision``
messages from a basic subset of acceptors.  While unlearned it
periodically pulls decisions from acceptors (bounded in simulation).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import Event
from repro.sim.process import Process
from repro.sim.trace import OperationRecord, Trace
from repro.consensus.decisions import DecisionTracker
from repro.consensus.messages import Decision, DecisionPull, Update


class Learner(Process):
    """A benign learner."""

    def __init__(
        self,
        pid: Hashable,
        rqs: RefinedQuorumSystem,
        trace: Trace,
        delta: float = 1.0,
        pull_interval: float = 10.0,
        max_pulls: int = 50,
    ):
        super().__init__(pid)
        self.rqs = rqs
        self._acceptors = rqs.ground_set
        self.trace = trace
        self.learned: Optional[Any] = None
        self.learned_at: Optional[float] = None
        #: Waitable "decision learned" condition — tasks and tests can
        #: ``yield WaitUntil(learner.learned_event)`` instead of polling.
        self.learned_event = Event(f"{pid} learned")
        self._decisions = DecisionTracker(rqs)
        self._decision_senders: Dict[Any, int] = {}  # value -> mask
        self._pull_interval = pull_interval
        self._pulls_left = max_pulls
        self._pull_armed = False
        self._record: Optional[OperationRecord] = None

    def bind(self, network):  # type: ignore[override]
        bound = super().bind(network)
        self._record, = self.trace.begin(
            "learn", self.pid, self.sim.now, ((None, 0),)
        )
        return bound

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, Update):
            if not self._pull_armed:
                self._arm_pulls()
            if src in self._acceptors:
                decided = self._decisions.record(src, payload)
                if decided is not None:
                    self._learn(decided)
        elif isinstance(payload, Decision):
            self._arm_pulls()
            index = self.rqs.index
            bit = index.bit.get(src)
            if bit is not None:
                value = payload.value
                senders = self._decision_senders.get(value, 0) | bit
                self._decision_senders[value] = senders
                if index.is_basic(senders):
                    self._learn(value)

    def _learn(self, value: Any) -> None:
        if self.learned is not None:
            return
        self.learned = value
        self.learned_at = self.sim.now
        if self._record is not None:
            self.trace.complete((self._record,), self.sim.now, (value,), 0)
        self.learned_event.set()

    # -- decision pulling (lines 102-103; bounded for simulation) -------------

    def _arm_pulls(self) -> None:
        if self._pull_armed or self.learned is not None:
            return
        self._pull_armed = True
        self.sim.call_later(self._pull_interval, self._pull)

    def _pull(self) -> None:
        if self.learned is not None or self.crashed or self._pulls_left <= 0:
            return
        self._pulls_left -= 1
        self.send_all(self.rqs.servers, DecisionPull())
        self.sim.call_later(self._pull_interval, self._pull)
