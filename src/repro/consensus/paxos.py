"""Single-decree crash Paxos baseline (Lamport's synod protocol).

Crash-failure model, majority quorums.  A proposer runs Phase 1
(``prepare``/``promise``) then Phase 2 (``accept``/``accepted``);
learners learn when a majority of acceptors accepted the same
(ballot, value).  With the classic message flow a value is learned four
message delays after a propose (prepare → promise → accept → accepted),
versus two for the RQS algorithm under a class-1 quorum — the baseline
row of experiment E12.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.records import record
from repro.sim.conditions import AckSet, ConditionMap
from repro.sim.process import Process
from repro.sim.tasks import WaitUntil
from repro.sim.trace import Trace


@record(frozen=True)
class PaxPrepare:
    ballot: int


@record(frozen=True)
class PaxPromise:
    ballot: int
    accepted_ballot: int
    accepted_value: Any


@record(frozen=True)
class PaxAccept:
    ballot: int
    value: Any


@record(frozen=True)
class PaxAccepted:
    ballot: int
    value: Any


class PaxosAcceptor(Process):
    def __init__(self, pid: Hashable, learners: Tuple[Hashable, ...]):
        super().__init__(pid)
        self.learners = learners
        self.promised = -1
        self.accepted_ballot = -1
        self.accepted_value: Any = None

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, PaxPrepare):
            if payload.ballot > self.promised:
                self.promised = payload.ballot
                self.send(
                    src,
                    PaxPromise(
                        payload.ballot,
                        self.accepted_ballot,
                        self.accepted_value,
                    ),
                )
        elif isinstance(payload, PaxAccept):
            if payload.ballot >= self.promised:
                self.promised = payload.ballot
                self.accepted_ballot = payload.ballot
                self.accepted_value = payload.value
                accepted = PaxAccepted(payload.ballot, payload.value)
                self.send(src, accepted)
                self.send_all(self.learners, accepted)


class PaxosProposer(Process):
    def __init__(
        self,
        pid: Hashable,
        acceptors: Tuple[Hashable, ...],
        trace: Trace,
        ballot_base: int,
        ballot_stride: int,
    ):
        super().__init__(pid)
        self.acceptors = acceptors
        self.trace = trace
        self.majority = len(acceptors) // 2 + 1
        self.ballot = ballot_base
        self.stride = ballot_stride
        self._promises: Dict[int, Dict[Hashable, PaxPromise]] = {}
        self._promised = ConditionMap(AckSet, "paxos promises b={}")
        self._accepted = ConditionMap(AckSet, "paxos accepted b={}")

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, PaxPromise):
            promises = self._promises.setdefault(payload.ballot, {})
            if src not in promises:
                promises[src] = payload
                self._promised(payload.ballot).add(src)
        elif isinstance(payload, PaxAccepted):
            self._accepted(payload.ballot).add(src)

    def propose(self, value: Any):
        record, = self.trace.begin(
            "propose", self.pid, self.sim.now, ((value, 0),)
        )
        while True:
            self.ballot += self.stride
            ballot = self.ballot
            self.send_all(self.acceptors, PaxPrepare(ballot))
            yield WaitUntil(self._promised(ballot).at_least(self.majority))
            promises = self._promises[ballot].values()
            prior = max(promises, key=lambda p: p.accepted_ballot)
            chosen = (
                prior.accepted_value
                if prior.accepted_ballot >= 0
                else value
            )
            self.send_all(self.acceptors, PaxAccept(ballot, chosen))
            yield WaitUntil(self._accepted(ballot).at_least(self.majority))
            self.trace.complete((record,), self.sim.now, (chosen,), 0)
            return record


class PaxosLearner(Process):
    def __init__(self, pid: Hashable, n_acceptors: int, trace: Trace):
        super().__init__(pid)
        self.majority = n_acceptors // 2 + 1
        self.trace = trace
        self.learned: Any = None
        self.learned_at: Optional[float] = None
        self._accepted: Dict[Tuple[int, Any], Set[Hashable]] = {}
        self._record = None

    def bind(self, network):  # type: ignore[override]
        bound = super().bind(network)
        self._record, = self.trace.begin(
            "learn", self.pid, self.sim.now, ((None, 0),)
        )
        return bound

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, PaxAccepted) and self.learned is None:
            key = (payload.ballot, payload.value)
            senders = self._accepted.setdefault(key, set())
            senders.add(src)
            if len(senders) >= self.majority:
                self.learned = payload.value
                self.learned_at = self.sim.now
                self.trace.complete(
                    (self._record,), self.sim.now, (payload.value,), 0
                )
