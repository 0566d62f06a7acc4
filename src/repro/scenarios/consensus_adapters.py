"""The consensus registry rows: ``rqs-consensus``, ``paxos`` and
``pbft``.

The paper's RQS-based Byzantine consensus (Figures 9–15) and its two
baselines, crash Paxos (:data:`PAXOS_ACCEPTORS` acceptors) and
PBFT-lite (``3f + 1`` replicas for :data:`PBFT_F`), over one shared
:class:`ConsensusAdapter`.  The baselines are fixed deployments and
read no ``params``.  The registry imports this module on the
first lookup of one of the three ids, so only a run that names a
consensus protocol compiles :mod:`repro.consensus` and
:mod:`repro.crypto`.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Tuple

from repro.analysis.consensus_check import ConsensusReport, check_consensus
from repro.crypto.signatures import SignatureService
from repro.errors import ScenarioError
from repro.scenarios.adapters import (
    ProtocolAdapter,
    _addressed,
    _byzantine_factories,
    _unsupported_strategy,
)
from repro.scenarios.registry import register_protocol
from repro.scenarios.workloads import Propose, RandomMix, Resync
from repro.sim.process import Process
from repro.consensus.acceptor import Acceptor
from repro.consensus.learner import Learner
from repro.consensus.paxos import PaxosAcceptor, PaxosLearner, PaxosProposer
from repro.consensus.pbft import PbftLearner, PbftReplica, Request
from repro.consensus.proposer import Proposer


#: The crash-Paxos baseline's acceptor count (a majority is 3).
PAXOS_ACCEPTORS = 5
#: The PBFT-lite baseline's fault bound: ``3f + 1 = 4`` replicas.
PBFT_F = 1


def _learner_ids(spec) -> Tuple[str, ...]:
    return tuple(f"l{index + 1}" for index in range(spec.learners))


class ConsensusAdapter(ProtocolAdapter):
    """Shared scheduling for proposer/acceptor/learner protocols."""

    kind = "consensus"

    learners: List[Any]

    def learner_pids(self) -> Tuple[Hashable, ...]:
        return tuple(learner.pid for learner in self.learners)

    def correct_learner_pids(self) -> Tuple[Hashable, ...]:
        crashed = {c.process for c in getattr(self, "_spec_crashes", ())}
        return tuple(
            pid for pid in self.learner_pids() if pid not in crashed
        )

    def check_consensus(self, records, **kwargs) -> ConsensusReport:
        return check_consensus(records, **kwargs)

    def apply_faults(self, spec) -> None:
        self._spec_crashes = spec.faults.crashes
        super().apply_faults(spec)

    def schedule(self, spec) -> None:
        if spec.duration is not None or spec.max_ops is not None:
            raise ScenarioError(
                f"protocol {self.protocol_id!r} does not support the "
                f"open-loop stopping rule (duration/max_ops); streaming "
                f"workloads are a storage feature"
            )
        for op in spec.workload:
            if isinstance(op, Propose):
                self._schedule_propose(op)
            elif isinstance(op, Resync):
                self._schedule_resync(op)
            elif isinstance(op, RandomMix) and op.batch_size != 1:
                raise ScenarioError(
                    f"consensus protocol {self.protocol_id!r} does not "
                    f"support the batch_size knob (got "
                    f"batch_size={op.batch_size!r}); operation batching "
                    f"is a storage feature"
                )
            else:
                raise ScenarioError(
                    f"consensus protocol {self.protocol_id!r} cannot run "
                    f"workload op {op!r}"
                )

    def _proposer(self, index: int):
        return _addressed(
            self.proposers, index, "addresses proposer", "proposers"
        )

    def _schedule_propose(self, op: Propose) -> None:
        proposer = self._proposer(op.proposer)

        def start() -> None:
            self.sim.spawn(
                proposer.propose(op.value),
                f"{proposer.pid}.propose({op.value!r})",
            )

        self.sim.call_at(op.at, start)

    def _schedule_resync(self, op: Resync) -> None:
        proposer = self._proposer(op.proposer)
        self.sim.call_at(op.at, proposer.resync)


@register_protocol("rqs-consensus")
class RqsConsensusAdapter(ConsensusAdapter):
    """The paper's RQS-based Byzantine consensus (Figures 9-15)."""

    param_keys = ("sync_delay", "proposer_values")

    def __init__(self, spec):
        _unsupported_strategy(self, spec)
        rqs = spec.resolved_rqs()
        if rqs is None:
            raise ScenarioError("rqs-consensus requires a quorum system")
        factories = _byzantine_factories(
            self, spec, acceptor=rqs.servers,
            proposer=range(spec.proposers),
        )
        acceptor_factories = factories["acceptor"]
        proposer_factories = factories["proposer"]
        super().__init__(spec)
        self.rqs = rqs
        network = self.network
        delta = network.delta
        service = SignatureService()
        proposer_ids = tuple(f"p{i + 1}" for i in range(spec.proposers))
        learner_ids = _learner_ids(spec)
        sync_delay = spec.param("sync_delay", 10.0)
        self.proposers = [
            proposer_factories.get(index, Proposer)(
                pid, rqs, proposer_ids, service, self.trace,
                delta=delta, sync_delay=sync_delay,
            ).bind(network)
            for index, pid in enumerate(proposer_ids)
        ]
        self.acceptors = {
            aid: acceptor_factories.get(aid, Acceptor)(
                aid, rqs, proposer_ids, learner_ids, service, delta=delta
            ).bind(network)
            for aid in rqs.servers
        }
        self.learners = [
            Learner(lid, rqs, self.trace, delta=delta).bind(network)
            for lid in learner_ids
        ]
        for index, value in dict(
            spec.param("proposer_values", {})
        ).items():
            self.proposers[index].value = value


@register_protocol("paxos")
class PaxosAdapter(ConsensusAdapter):
    """Single-decree crash Paxos baseline (acceptors
    ``1..PAXOS_ACCEPTORS``)."""

    def __init__(self, spec):
        _byzantine_factories(self, spec)
        _unsupported_strategy(self, spec)
        super().__init__(spec)
        network = self.network
        acceptor_ids = tuple(range(1, PAXOS_ACCEPTORS + 1))
        learner_ids = _learner_ids(spec)
        self.acceptors = {
            aid: PaxosAcceptor(aid, learner_ids).bind(network)
            for aid in acceptor_ids
        }
        self.proposers = [
            PaxosProposer(
                f"p{index + 1}", acceptor_ids, self.trace,
                ballot_base=index, ballot_stride=spec.proposers,
            ).bind(network)
            for index in range(spec.proposers)
        ]
        self.learners = [
            PaxosLearner(lid, PAXOS_ACCEPTORS, self.trace).bind(network)
            for lid in learner_ids
        ]


@register_protocol("pbft")
class PbftAdapter(ConsensusAdapter):
    """PBFT-lite baseline (fault-free normal case, fixed primary):
    ``3f + 1`` replicas for ``f = PBFT_F``."""

    def __init__(self, spec):
        _byzantine_factories(self, spec)
        _unsupported_strategy(self, spec)
        super().__init__(spec)
        network = self.network
        replica_ids = tuple(range(1, 3 * PBFT_F + 2))
        learner_ids = _learner_ids(spec)
        self.replicas = {
            rid: PbftReplica(
                rid, replica_ids, learner_ids, PBFT_F,
                primary=replica_ids[0],
            ).bind(network)
            for rid in replica_ids
        }
        self.learners = [
            PbftLearner(lid, PBFT_F, self.trace).bind(network)
            for lid in learner_ids
        ]
        self.client = Process("client").bind(network)

    def _schedule_propose(self, op: Propose) -> None:
        # PBFT has no proposer processes: the client's request to the
        # primary plays the propose role; record it for latency origin.
        client = self.client
        primary = min(self.replicas)

        def start() -> None:
            record, = self.trace.begin(
                "propose", client.pid, self.sim.now, ((op.value, 0),)
            )
            client.send(primary, Request(op.value))
            self.trace.complete((record,), self.sim.now, ("requested",), 0)

        self.sim.call_at(op.at, start)

    def _schedule_resync(self, op: Resync) -> None:
        raise ScenarioError("pbft has no resync operation")
