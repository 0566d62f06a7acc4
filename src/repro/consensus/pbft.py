"""PBFT-lite single-shot baseline (Castro–Liskov normal case).

``n = 3f + 1`` acceptors ("replicas"), a fixed primary.  Normal-case flow
for one decision: the proposer's request reaches the primary, which sends
``pre-prepare``; replicas exchange ``prepare`` then ``commit``; a learner
learns on ``f + 1`` matching ``committed`` notifications.

Message-delay count to learners from the propose:
request(1) → pre-prepare(2) → prepare(3) → commit(4) → committed(5) for
non-primary replicas; with the usual "reply after commit" shortcut the
first replies land 5Δ after the propose — never better than the RQS
algorithm's 2Δ best case and strictly worse than its 4Δ worst best-case.
View changes are not implemented (this baseline only measures the
fault-free fast path of E12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.sim.process import Process
from repro.sim.trace import Trace


@dataclass(frozen=True)
class Request:
    value: Any


@dataclass(frozen=True)
class PrePrepare:
    view: int
    value: Any


@dataclass(frozen=True)
class BftPrepare:
    view: int
    value: Any


@dataclass(frozen=True)
class Commit:
    view: int
    value: Any


@dataclass(frozen=True)
class Committed:
    view: int
    value: Any


class PbftReplica(Process):
    def __init__(
        self,
        pid: Hashable,
        replicas: Tuple[Hashable, ...],
        learners: Tuple[Hashable, ...],
        f: int,
        primary: Hashable,
    ):
        super().__init__(pid)
        self.replicas = replicas
        self.learners = learners
        self.f = f
        self.primary = primary
        self.pre_prepared: Optional[Any] = None
        self.prepared = False
        self.committed_local = False
        self._prepares: Dict[Any, Set[Hashable]] = {}
        self._commits: Dict[Any, Set[Hashable]] = {}

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, Request) and self.pid == self.primary:
            if self.pre_prepared is None:
                self.pre_prepared = payload.value
                self.send_all(self.replicas, PrePrepare(0, payload.value))
        elif isinstance(payload, PrePrepare):
            if src == self.primary and self.pre_prepared is None:
                self.pre_prepared = payload.value
                self.send_all(self.replicas, BftPrepare(0, payload.value))
        elif isinstance(payload, BftPrepare):
            senders = self._prepares.setdefault(payload.value, set())
            senders.add(src)
            # prepared: pre-prepare + 2f matching prepares
            if (
                not self.prepared
                and self.pre_prepared == payload.value
                and len(senders) >= 2 * self.f
            ):
                self.prepared = True
                self.send_all(self.replicas, Commit(0, payload.value))
        elif isinstance(payload, Commit):
            senders = self._commits.setdefault(payload.value, set())
            senders.add(src)
            # committed-local: 2f + 1 matching commits
            if (
                not self.committed_local
                and len(senders) >= 2 * self.f + 1
            ):
                self.committed_local = True
                self.send_all(self.learners, Committed(0, payload.value))


class PbftLearner(Process):
    def __init__(self, pid: Hashable, f: int, trace: Trace):
        super().__init__(pid)
        self.f = f
        self.trace = trace
        self.learned: Any = None
        self.learned_at: Optional[float] = None
        self._committed: Dict[Any, Set[Hashable]] = {}
        self._record = None

    def bind(self, network):  # type: ignore[override]
        bound = super().bind(network)
        self._record, = self.trace.begin(
            "learn", self.pid, self.sim.now, ((None, 0),)
        )
        return bound

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, Committed) and self.learned is None:
            senders = self._committed.setdefault(payload.value, set())
            senders.add(src)
            if len(senders) >= self.f + 1:
                self.learned = payload.value
                self.learned_at = self.sim.now
                self.trace.complete(
                    (self._record,), self.sim.now, (payload.value,), 0
                )
