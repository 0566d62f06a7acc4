"""End-to-end wiring for consensus executions.

:class:`ConsensusSystem` assembles the proposer/acceptor/learner roles
over a simulated network and exposes scenario drivers: best-case
single-proposer runs, contended runs, Byzantine acceptors/proposers and
pre-GST asynchrony (via network rules).

This class is the thin wiring behind the ``"rqs-consensus"`` protocol of
:mod:`repro.scenarios` — prefer building a
:class:`~repro.scenarios.ScenarioSpec` and calling
:func:`repro.scenarios.run` over instantiating it directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.crypto.signatures import SignatureService
from repro.sim.network import Network, Rule, TraceLevel
from repro.sim.simulator import Simulator
from repro.sim.trace import OperationRecord, Trace
from repro.consensus.acceptor import Acceptor
from repro.consensus.learner import Learner
from repro.consensus.proposer import Proposer

AcceptorFactory = Callable[..., Acceptor]
ProposerFactory = Callable[..., Proposer]


class ConsensusSystem:
    """A fully wired consensus deployment."""

    def __init__(
        self,
        rqs: RefinedQuorumSystem,
        n_proposers: int = 2,
        n_learners: int = 3,
        delta: float = 1.0,
        acceptor_factories: Optional[Dict[Hashable, AcceptorFactory]] = None,
        proposer_factories: Optional[Dict[int, ProposerFactory]] = None,
        crash_times: Optional[Dict[Hashable, float]] = None,
        rules: Optional[Sequence[Rule]] = None,
        sync_delay: float = 10.0,
        trace_level: TraceLevel = TraceLevel.FULL,
    ):
        self.rqs = rqs
        self.delta = delta
        self.sim = Simulator()
        self.network = Network(
            self.sim, delta=delta, rules=list(rules or []),
            trace_level=trace_level,
        )
        self.trace = Trace(
            retain=self.network.trace_level >= TraceLevel.FULL
        )
        self.service = SignatureService()

        self.proposer_ids = tuple(f"p{i + 1}" for i in range(n_proposers))
        self.learner_ids = tuple(f"l{i + 1}" for i in range(n_learners))

        self.proposers: List[Proposer] = []
        factories_p = proposer_factories or {}
        for index, pid in enumerate(self.proposer_ids):
            factory = factories_p.get(index, Proposer)
            proposer = factory(
                pid,
                rqs,
                self.proposer_ids,
                self.service,
                self.trace,
                delta=delta,
                sync_delay=sync_delay,
            )
            proposer.bind(self.network)
            self.proposers.append(proposer)

        self.acceptors: Dict[Hashable, Acceptor] = {}
        factories_a = acceptor_factories or {}
        for aid in rqs.servers:
            factory = factories_a.get(aid, Acceptor)
            acceptor = factory(
                aid,
                rqs,
                self.proposer_ids,
                self.learner_ids,
                self.service,
                delta=delta,
            )
            acceptor.bind(self.network)
            self.acceptors[aid] = acceptor

        self.learners: List[Learner] = []
        for lid in self.learner_ids:
            learner = Learner(lid, rqs, self.trace, delta=delta)
            learner.bind(self.network)
            self.learners.append(learner)

        for pid_or_aid, time in (crash_times or {}).items():
            self.process(pid_or_aid).schedule_crash(time)

    # -- access -------------------------------------------------------------------

    def process(self, pid: Hashable):
        return self.network.process(pid)

    def learner(self, index: int) -> Learner:
        return self.learners[index]

    # -- drivers -------------------------------------------------------------------

    def propose_at(self, time: float, value: Any, proposer_index: int = 0):
        proposer = self.proposers[proposer_index]
        holder: Dict[str, Any] = {}

        def start() -> None:
            holder["task"] = self.sim.spawn(
                proposer.propose(value), f"{proposer.pid}.propose({value!r})"
            )

        self.sim.call_at(time, start)
        return holder

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_best_case(
        self, value: Any, horizon: float = 60.0
    ) -> Dict[Hashable, Optional[float]]:
        """Single correct proposer proposes at t=0; returns per-learner
        message-delay latencies (``None`` for learners that never learn)."""
        self.propose_at(0.0, value, proposer_index=0)
        self.sim.run(until=horizon)
        delays: Dict[Hashable, Optional[float]] = {}
        for learner in self.learners:
            if learner.learned_at is None:
                delays[learner.pid] = None
            else:
                delays[learner.pid] = learner.learned_at / self.delta
        return delays

    def learned_values(self) -> Dict[Hashable, Any]:
        return {
            learner.pid: learner.learned
            for learner in self.learners
            if learner.learned is not None
        }

    def operations(self) -> Tuple[OperationRecord, ...]:
        return self.trace.records
