"""Protocol adapters: the bridge from a declarative spec to a wired system.

Each registered adapter knows how to build one protocol's deployment
(reusing the thin system facades in :mod:`repro.storage` and
:mod:`repro.consensus`), apply a :class:`~repro.scenarios.faults.FaultPlan`
to it, and schedule a declarative workload on it.  The scenario runner
only ever talks to the uniform adapter surface:

* ``build(spec)`` — wire processes, network rules and Byzantine roles;
* ``apply_faults(spec)`` — schedule every crash (clients included);
* ``schedule(spec)`` — translate workload literals into client drivers;
* ``execute(spec)`` — run to the horizon or to completion.

Crashes are applied before workload operations are scheduled, so a crash
and an operation at the same simulated instant resolve crash-first —
matching the hand-driven schedules the experiment modules used to build.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.strategy import Strategy, optimal_strategy, uniform_strategy
from repro.errors import ScenarioError
from repro.scenarios.faults import ACCEPTOR, PROPOSER, SERVER, ByzantineRole
from repro.scenarios.registry import register_protocol
from repro.scenarios.workloads import (
    OpBudget,
    Propose,
    RandomMix,
    Read,
    Resync,
    Write,
    expand_random_mix,
    open_loop_stream,
)
from repro.sim.tasks import batched_ops, sequential_ops
from repro.consensus.proposer import EquivocatingProposer
from repro.consensus.system import ConsensusSystem
from repro.consensus.paxos import PaxosSystem
from repro.consensus.pbft import PbftSystem, Request
from repro.storage.abd import PROTOCOLS, RegisterSystem
from repro.storage.server import (
    FabricatingServer,
    ForgetfulServer,
    QuorumForgettingServer,
    SilentServer,
)
from repro.storage.system import StorageSystem


class ProtocolAdapter:
    """Uniform surface over one wired protocol deployment."""

    kind: str = ""            # "storage" | "consensus"
    protocol_id: str = ""     # set by register_protocol

    def __init__(self, system: Any):
        self.system = system

    # -- uniform access -------------------------------------------------------

    @property
    def sim(self):
        return self.system.sim

    @property
    def network(self):
        return self.system.network

    @property
    def trace(self):
        return self.system.trace

    def learner_pids(self) -> Tuple[Hashable, ...]:
        return ()

    def correct_learner_pids(self) -> Tuple[Hashable, ...]:
        return self.learner_pids()

    # -- lifecycle hooks ------------------------------------------------------

    @classmethod
    def build(cls, spec) -> "ProtocolAdapter":
        raise NotImplementedError

    def apply_faults(self, spec) -> None:
        """Schedule every crash in the plan (servers and clients alike)
        and the healing of finitely-windowed partitions."""
        for crash in spec.faults.crashes:
            try:
                process = self.network.process(crash.process)
            except KeyError:
                raise ScenarioError(
                    f"crash target {crash.process!r} is not a process of "
                    f"protocol {self.protocol_id!r}"
                )
            process.schedule_crash(crash.at)
        for partition in spec.faults.partitions:
            if partition.until < float("inf"):
                self.sim.call_at(
                    partition.until,
                    self.network.release_held,
                    partition.crossed_by,
                )

    def schedule(self, spec) -> None:
        raise NotImplementedError

    def execute(self, spec) -> None:
        max_events = self._event_budget(spec)
        if spec.horizon is None:
            self.sim.run_to_completion(
                strict=spec.strict, max_events=max_events
            )
        else:
            self.sim.run(until=spec.horizon, max_events=max_events)

    @staticmethod
    def _event_budget(spec) -> int:
        """The livelock guard, scaled for horizon-free soaks.

        The simulator's default 1M-event cap is a guard against genuine
        livelock, but a million-op open-loop run legitimately processes
        tens of millions of events; scale the cap with the op budget
        (``spec.params["max_events"]`` overrides it outright)."""
        override = spec.param("max_events")
        if override is not None:
            return int(override)
        budget = 1_000_000
        if spec.max_ops is not None:
            budget = max(budget, spec.max_ops * 100)
        if spec.duration is not None:
            for op in spec.workload:
                if isinstance(op, RandomMix) and op.horizon > 0:
                    rate = (op.writes + op.reads) / op.horizon
                    budget = max(
                        budget,
                        int(spec.duration * rate * 100) + 1_000_000,
                    )
        return budget

    # -- shared helpers -------------------------------------------------------

    def _sequential_ops(
        self,
        schedule: List[Tuple[float, Callable[..., Any], tuple]],
    ):
        """One client's operations back to back (shared driver; the
        paper's well-formedness rule)."""
        return sequential_ops(self.sim, schedule)


def _unsupported_roles(adapter: ProtocolAdapter, spec) -> None:
    if spec.faults.byzantine:
        raise ScenarioError(
            f"protocol {adapter.protocol_id!r} does not support "
            f"Byzantine role assignments"
        )


def _unsupported_strategy(adapter: ProtocolAdapter, spec) -> None:
    if spec.quorum_strategy is not None:
        raise ScenarioError(
            f"protocol {adapter.protocol_id!r} does not support the "
            f"quorum_strategy knob; only rqs-storage does"
        )


def _workload_read_fraction(spec) -> Fraction:
    """The spec's read mix as an exact fraction (for ``"optimal"``).

    Counts reads and writes across the workload literals; a workload
    with no countable operations defaults to a balanced 1/2.
    """
    reads = writes = 0
    for op in spec.workload:
        if isinstance(op, RandomMix):
            reads += op.reads
            writes += op.writes
        elif isinstance(op, Read):
            reads += 1
        elif isinstance(op, Write):
            writes += 1
    total = reads + writes
    return Fraction(reads, total) if total else Fraction(1, 2)


def _resolve_strategy(spec, rqs) -> Optional[Strategy]:
    """Resolve ``spec.quorum_strategy`` against the resolved RQS.

    The distributions range over the RQS's (single) quorum family —
    read operations draw from the strategy's read distribution, write
    operations from its write distribution.  Per-node capacities are
    taken from the RQS when it carries them (the expression lift's
    :class:`~repro.core.algebra.CapacitatedRqs`), else unit.
    """
    choice = spec.quorum_strategy
    if choice is None:
        return None
    family = rqs.quorums
    if isinstance(choice, Strategy):
        stray = [q for q in choice.quorums() if q not in family]
        if stray:
            raise ScenarioError(
                f"quorum_strategy puts weight on "
                f"{sorted(stray[0], key=repr)}, which is not a quorum of "
                f"the spec's RQS"
            )
        return choice
    read_caps = getattr(rqs, "read_capacity", None) or None
    write_caps = getattr(rqs, "write_capacity", None) or None
    fr = _workload_read_fraction(spec)
    build = uniform_strategy if choice == "uniform" else optimal_strategy
    return build(family, family, read_fraction=fr,
                 read_capacity=read_caps, write_capacity=write_caps)


# -- storage ------------------------------------------------------------------

_STORAGE_BEHAVIORS = ("silent", "fabricating", "forgetful", "forget-qc2-ids")


def _storage_server_factory(role: ByzantineRole) -> Callable[[Hashable], Any]:
    if role.factory is not None:
        return role.factory
    if role.behavior == "silent":
        return SilentServer
    if role.behavior == "fabricating":
        try:
            ts, value = role.params["ts"], role.params["value"]
        except KeyError as missing:
            raise ScenarioError(
                f"fabricating role for {role.process!r} needs "
                f"params={{'ts': ..., 'value': ...}}; missing {missing}"
            )
        return lambda pid: FabricatingServer(pid, ts, value)
    if role.behavior == "forgetful":
        state = role.params.get("state")
        return lambda pid, at=role.at: ForgetfulServer(pid, at, state)
    if role.behavior == "forget-qc2-ids":
        return lambda pid, at=role.at: QuorumForgettingServer(pid, at)
    raise ScenarioError(
        f"unknown storage Byzantine behavior {role.behavior!r}; "
        f"built-ins: {', '.join(_STORAGE_BEHAVIORS)} (or pass factory=...)"
    )


class StorageAdapter(ProtocolAdapter):
    """Shared scheduling for every read/write register protocol.

    Workload ops address a keyed register space: each op carries its
    ``key`` and (for writes) its ``writer`` index.  One sequential
    client task is spawned per addressed writer and per addressed
    reader (the paper's well-formedness rule, per client); all client
    tasks block on indexed Conditions inside the protocol coroutines,
    never on ad-hoc closures.

    Scheduling is **streaming-first**: a pure single-``RandomMix``
    workload hands each client a lazy iterator over the mix's draw
    (closed loop, bit-identical to list expansion), and a spec with an
    open-loop stopping rule (``duration``/``max_ops``) hands each
    client an unbounded per-client generator — no materialized op
    lists in either case.  Only workloads mixing explicit literals
    still expand eagerly.
    """

    kind = "storage"

    @staticmethod
    def _shard_of(spec) -> Optional[Tuple[int, int]]:
        """The ``(index, count)`` shard view a per-shard worker spec
        carries in its params (set by ``run_sharded``); None for
        ordinary unsharded runs."""
        count = spec.param("shard_count")
        if count is None:
            return None
        return (int(spec.param("shard_index", 0)), int(count))

    def schedule(self, spec) -> None:
        workload = spec.workload
        if spec.duration is not None or spec.max_ops is not None:
            if len(workload) != 1 or not isinstance(workload[0], RandomMix):
                raise ScenarioError(
                    "open-loop runs (duration/max_ops) take exactly one "
                    "RandomMix workload literal, whose counts set the "
                    f"write:read ratio; got {workload!r}"
                )
            self._schedule_open_loop(spec, workload[0])
            return
        if len(workload) == 1 and isinstance(workload[0], RandomMix):
            self._schedule_stream(spec, workload[0])
            return
        self._schedule_expanded(spec)

    @staticmethod
    def _write_schedule(ops, write):
        """``(at, value, key)`` triples -> sequential_ops schedule.

        A real generator function (not a genexp over a loop variable)
        so the bound client method stays fixed however late items are
        pulled."""
        for at, value, key in ops:
            yield (at, write, (value, key))

    @staticmethod
    def _read_schedule(ops, read):
        for at, key in ops:
            yield (at, read, (key,))

    @staticmethod
    def _write_batch_schedule(ops):
        """``(at, value, key)`` triples -> ``(at, (value, key))`` batch
        elements for :func:`batched_ops`."""
        for at, value, key in ops:
            yield (at, (value, key))

    @staticmethod
    def _read_batch_schedule(ops):
        for at, key in ops:
            yield (at, key)

    def _spawn_writer(self, index, writer, mix, ops) -> None:
        """One writer's driver task: unbatched sequential ops, or the
        batched coalescing driver when ``mix.batch_size != 1`` (a fixed
        window or the adaptive ``"auto"`` rule)."""
        name = (
            "writer-workload" if index == 0 else f"{writer.pid}-workload"
        )
        if mix.batch_size != 1:
            coro = batched_ops(
                self.sim, self._write_batch_schedule(ops),
                mix.batch_size, writer.write_batch,
            )
        else:
            coro = self._sequential_ops(
                self._write_schedule(ops, writer.write)
            )
        self.sim.spawn(coro, name)

    def _spawn_reader(self, reader, mix, ops) -> None:
        if mix.batch_size != 1:
            coro = batched_ops(
                self.sim, self._read_batch_schedule(ops),
                mix.batch_size, reader.read_batch,
            )
        else:
            coro = self._sequential_ops(self._read_schedule(ops, reader.read))
        self.sim.spawn(coro, f"{reader.pid}-workload")

    def _schedule_stream(self, spec, mix: RandomMix) -> None:
        """Closed-loop streaming: per-client lazy views of the seeded
        draw — the same schedules ``expand_random_mix`` materializes,
        without building per-client op lists."""
        if mix.reads > 0 and len(self.system.readers) < 1:
            raise ScenarioError(
                f"RandomMix schedules {mix.reads} reads but the scenario "
                f"has no readers; set readers >= 1 (or reads=0)"
            )
        stream = mix.stream(
            len(self.system.readers), spec.seed,
            n_keys=spec.n_keys, n_writers=len(self.system.writers),
            shard=self._shard_of(spec),
        )
        for index in stream.writers_with_ops:
            self._spawn_writer(
                index, self.system.writers[index], mix,
                stream.writer_ops(index),
            )
        for index in stream.readers_with_ops:
            self._spawn_reader(
                self.system.readers[index], mix, stream.reader_ops(index)
            )

    def _schedule_open_loop(self, spec, mix: RandomMix) -> None:
        """Horizon-free streaming: every client draws its next op
        lazily from an independent seeded generator, stopping on the
        shared op budget or the duration bound."""
        if mix.reads > 0 and len(self.system.readers) < 1:
            raise ScenarioError(
                f"RandomMix schedules reads (ratio {mix.writes}:"
                f"{mix.reads}) but the scenario has no readers; set "
                f"readers >= 1 (or reads=0)"
            )
        budget = OpBudget(spec.max_ops)
        shard = self._shard_of(spec)
        writers = self.system.writers if mix.writes > 0 else []
        readers = self.system.readers if mix.reads > 0 else []
        for index, writer in enumerate(writers):
            ops = open_loop_stream(
                mix, "writer", index, len(writers), spec.seed, budget,
                spec.duration, n_keys=spec.n_keys, shard=shard,
            )
            self._spawn_writer(index, writer, mix, ops)
        for index, reader in enumerate(readers):
            ops = open_loop_stream(
                mix, "reader", index, len(readers), spec.seed, budget,
                spec.duration, n_keys=spec.n_keys, shard=shard,
            )
            self._spawn_reader(reader, mix, ops)

    def _schedule_expanded(self, spec) -> None:
        """The materializing path for workloads mixing explicit
        literals with random mixes."""
        per_writer: Dict[int, List[Tuple[float, Any, Hashable]]] = {}
        per_reader: Dict[int, List[Tuple[float, Hashable]]] = {}
        next_value = 1
        for op in spec.workload:
            if isinstance(op, Write):
                if not 0 <= op.writer < len(self.system.writers):
                    raise ScenarioError(
                        f"workload writes via writer {op.writer} but the "
                        f"spec only has {len(self.system.writers)} writers "
                        f"(n_writers)"
                    )
                per_writer.setdefault(op.writer, []).append(
                    (op.at, op.value, op.key)
                )
                if isinstance(op.value, int):
                    next_value = max(next_value, op.value + 1)
            elif isinstance(op, Read):
                per_reader.setdefault(op.reader, []).append((op.at, op.key))
            elif isinstance(op, RandomMix):
                if op.batch_size != 1:
                    raise ScenarioError(
                        f"batch_size={op.batch_size!r} requires a pure "
                        "single-RandomMix workload (the streaming paths); "
                        "it cannot ride along in a mixed-literal expansion"
                    )
                writes, reads = expand_random_mix(
                    op, len(self.system.readers), spec.seed,
                    first_value=next_value,
                    n_keys=spec.n_keys,
                    n_writers=len(self.system.writers),
                )
                next_value += op.writes
                for w in writes:
                    per_writer.setdefault(w.writer, []).append(
                        (w.at, w.value, w.key)
                    )
                for reader, ops in reads.items():
                    per_reader.setdefault(reader, []).extend(
                        (r.at, r.key) for r in ops
                    )
            else:
                raise ScenarioError(
                    f"storage protocol {self.protocol_id!r} cannot run "
                    f"workload op {op!r}"
                )
        for index in sorted(per_writer):
            writer = self.system.writers[index]
            ops = sorted(per_writer[index], key=lambda item: item[0])
            self.sim.spawn(
                self._sequential_ops(
                    [(at, writer.write, (value, key))
                     for at, value, key in ops]
                ),
                "writer-workload" if index == 0
                else f"{writer.pid}-workload",
            )
        for index in sorted(per_reader):
            try:
                reader = self.system.readers[index]
            except IndexError:
                raise ScenarioError(
                    f"workload reads from reader {index} but the spec "
                    f"only has {len(self.system.readers)} readers"
                )
            ops = sorted(per_reader[index], key=lambda item: item[0])
            self.sim.spawn(
                self._sequential_ops(
                    [(at, reader.read, (key,)) for at, key in ops]
                ),
                f"{reader.pid}-workload",
            )


@register_protocol("rqs-storage")
class RqsStorageAdapter(StorageAdapter):
    """The paper's Byzantine atomic storage (Figures 5-7) over any RQS."""

    @classmethod
    def build(cls, spec) -> "RqsStorageAdapter":
        rqs = spec.resolved_rqs()
        if rqs is None:
            raise ScenarioError("rqs-storage requires a quorum system")
        capacity_model = bool(spec.param("capacity_model", False))
        if capacity_model and not getattr(rqs, "read_capacity", None):
            raise ScenarioError(
                "capacity_model requires an RQS with per-node capacities "
                "(lift one from a quorum expression, e.g. rqs='grid-hetero')"
            )
        factories = {
            role.process: _storage_server_factory(role)
            for role in spec.faults.byzantine_for(SERVER)
        }
        batched = [
            op.batch_size for op in spec.workload
            if isinstance(op, RandomMix) and op.batch_size != 1
        ]
        if factories and batched:
            # Byzantine servers override the unbatched handlers only;
            # batched traffic would reach the benign base-class
            # handlers and the role would silently run honest.
            raise ScenarioError(
                f"Byzantine server roles (faults.byzantine, servers "
                f"{sorted(factories, key=repr)}) cannot be combined with "
                f"batch_size={batched[0]!r}: batched messages bypass the "
                f"Byzantine handlers; use batch_size=1"
            )
        system = StorageSystem(
            rqs,
            n_readers=spec.readers,
            delta=spec.delta,
            server_factories=factories,
            rules=spec.faults.rules(),
            trace_level=spec.trace_level,
            n_writers=spec.n_writers,
            n_keys=spec.n_keys,
            strategy=_resolve_strategy(spec, rqs),
            strategy_seed=spec.seed,
            capacity_model=capacity_model,
            bounded_history=bool(spec.param("bounded_history", False)),
        )
        return cls(system)


class RegisterAdapter(StorageAdapter):
    """The crash-model count-quorum baselines — classic ABD, the
    Section 1.2 fast variant and the broken greedy algorithm of
    Figure 1 — each one row of :data:`repro.storage.abd.PROTOCOLS`."""

    @classmethod
    def build(cls, spec) -> "RegisterAdapter":
        system = RegisterSystem(
            PROTOCOLS[cls.protocol_id],
            n=spec.param("n", 5),
            t=spec.param("t", 2),
            fast=spec.param("fast", 4),
            n_readers=spec.readers,
            delta=spec.delta,
            rules=spec.faults.rules(),
            trace_level=spec.trace_level,
            n_writers=spec.n_writers,
        )
        adapter = cls(system)
        _unsupported_roles(adapter, spec)
        _unsupported_strategy(adapter, spec)
        return adapter


# One registration per table row (a subclass each, because
# ``register_protocol`` stamps the id on the class it registers).
for _protocol_id in PROTOCOLS:
    register_protocol(_protocol_id)(
        type(f"RegisterAdapter[{_protocol_id}]", (RegisterAdapter,), {})
    )


# -- consensus ----------------------------------------------------------------

class ConsensusAdapter(ProtocolAdapter):
    """Shared scheduling for proposer/acceptor/learner protocols."""

    kind = "consensus"

    def learner_pids(self) -> Tuple[Hashable, ...]:
        return tuple(learner.pid for learner in self.system.learners)

    def correct_learner_pids(self) -> Tuple[Hashable, ...]:
        crashed = {c.process for c in getattr(self, "_spec_crashes", ())}
        return tuple(
            pid for pid in self.learner_pids() if pid not in crashed
        )

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
        try:
            return self.system.proposers[index]
        except IndexError:
            raise ScenarioError(
                f"workload addresses proposer {index} but the spec only "
                f"has {len(self.system.proposers)} proposers"
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

    @classmethod
    def build(cls, spec) -> "RqsConsensusAdapter":
        _unsupported_strategy(cls, spec)
        rqs = spec.resolved_rqs()
        if rqs is None:
            raise ScenarioError("rqs-consensus requires a quorum system")
        acceptor_factories: Dict[Hashable, Any] = {}
        for role in spec.faults.byzantine_for(ACCEPTOR):
            if role.factory is None:
                raise ScenarioError(
                    f"acceptor Byzantine role {role.behavior!r} has no "
                    f"built-in; pass factory=... (an Acceptor subclass)"
                )
            acceptor_factories[role.process] = role.factory
        proposer_factories: Dict[int, Any] = {}
        for role in spec.faults.byzantine_for(PROPOSER):
            if role.factory is not None:
                proposer_factories[role.process] = role.factory
            elif role.behavior == "equivocating":
                proposer_factories[role.process] = EquivocatingProposer
            else:
                raise ScenarioError(
                    f"unknown proposer Byzantine behavior "
                    f"{role.behavior!r}; built-ins: equivocating"
                )
        system = ConsensusSystem(
            rqs,
            n_proposers=spec.proposers,
            n_learners=spec.learners,
            delta=spec.delta,
            acceptor_factories=acceptor_factories,
            proposer_factories=proposer_factories,
            rules=spec.faults.rules(),
            sync_delay=spec.param("sync_delay", 10.0),
            trace_level=spec.trace_level,
        )
        for index, value in dict(
            spec.param("proposer_values", {})
        ).items():
            system.proposers[index].value = value
        return cls(system)


@register_protocol("paxos")
class PaxosAdapter(ConsensusAdapter):
    """Single-decree crash Paxos baseline."""

    @classmethod
    def build(cls, spec) -> "PaxosAdapter":
        system = PaxosSystem(
            n_acceptors=spec.param("n_acceptors", 5),
            n_proposers=spec.proposers,
            n_learners=spec.learners,
            delta=spec.delta,
            rules=spec.faults.rules(),
            trace_level=spec.trace_level,
        )
        adapter = cls(system)
        _unsupported_roles(adapter, spec)
        _unsupported_strategy(adapter, spec)
        return adapter


@register_protocol("pbft")
class PbftAdapter(ConsensusAdapter):
    """PBFT-lite baseline (fault-free normal case, fixed primary)."""

    @classmethod
    def build(cls, spec) -> "PbftAdapter":
        system = PbftSystem(
            f=spec.param("f", 1),
            n_learners=spec.learners,
            delta=spec.delta,
            rules=spec.faults.rules(),
            trace_level=spec.trace_level,
        )
        adapter = cls(system)
        _unsupported_roles(adapter, spec)
        _unsupported_strategy(adapter, spec)
        return adapter

    def _schedule_propose(self, op: Propose) -> None:
        # PBFT has no proposer processes: the client's request to the
        # primary plays the propose role; record it for latency origin.
        system = self.system
        primary = min(system.replicas)

        def start() -> None:
            record = self.trace.begin(
                "propose", system.client.pid, self.sim.now, op.value
            )
            system.client.send(primary, Request(op.value))
            self.trace.complete(record, self.sim.now, "requested")

        self.sim.call_at(op.at, start)

    def _schedule_resync(self, op: Resync) -> None:
        raise ScenarioError("pbft has no resync operation")
