"""Protocol adapters: a declarative spec, wired.

An adapter **is** the deployment: constructing one from a
:class:`~repro.scenarios.spec.ScenarioSpec` creates the simulator, the
network (with the fault plan's rules) and the trace, then binds the
protocol's processes straight from the spec and keeps the role lists as
its own attributes (``servers``/``writers``/``readers`` for storage,
``proposers``/``acceptors``/``learners`` — ``replicas``/``client`` for
PBFT — for consensus).  This module is the only place outside
:mod:`repro.sim` that constructs a ``Simulator`` or a ``Network``
(``tests/test_invariants.py`` holds that by scanning sources).

**Bind order is part of every pinned execution** — processes that
schedule events as they are bound (the time-triggered Byzantine servers)
take their queue position from it, and clients are spawned in role-list
order — so each family fixes it once:

* storage: servers (``rqs.servers`` / ``1..n`` order) → writers
  (:func:`~repro.storage.stamping.writer_fleet` names) → readers
  (``reader1``…);
* rqs-consensus: proposers → acceptors → learners, over one
  :class:`~repro.crypto.signatures.SignatureService`;
* paxos: acceptors → proposers → learners;
* pbft: replicas → learners → ``client``.

The scenario runner only ever talks to the uniform lifecycle:

* ``build(spec)`` — wire processes, network rules and Byzantine roles;
* ``apply_faults(spec)`` — schedule every crash (clients included);
* ``schedule(spec)`` — hand each addressed client its op iterator;
* ``execute(spec)`` — run to the horizon or to completion.

Crashes are applied before workload operations are scheduled, so a crash
and an operation at the same simulated instant resolve crash-first.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

from repro.analysis.streaming import OnlineRefusal
from repro.core.strategy import (
    QuorumSelector,
    Strategy,
    optimal_strategy,
    uniform_strategy,
)
from repro.crypto.signatures import SignatureService
from repro.errors import ScenarioError
from repro.scenarios.faults import ACCEPTOR, PROPOSER, SERVER
from repro.scenarios.registry import register_protocol
from repro.scenarios.workloads import (
    OpBudget,
    Propose,
    RandomMix,
    Read,
    Resync,
    Write,
    open_loop_stream,
)
from repro.sim.network import Network, TraceLevel
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.tasks import batched_ops, sequential_ops
from repro.sim.trace import Trace
from repro.consensus.acceptor import Acceptor
from repro.consensus.learner import Learner
from repro.consensus.paxos import PaxosAcceptor, PaxosLearner, PaxosProposer
from repro.consensus.pbft import PbftLearner, PbftReplica, Request
from repro.consensus.proposer import Proposer
from repro.storage.abd import (
    NAIVE,
    PROTOCOLS,
    RegisterReader,
    RegisterServer,
    RegisterWriter,
)
from repro.storage.reader import StorageReader
from repro.storage.regular import RegularReader
from repro.storage.server import RateLimitedServer, StorageServer
from repro.storage.stamping import writer_fleet
from repro.storage.writer import StorageWriter


class ProtocolAdapter:
    """One wired protocol deployment and the uniform lifecycle over it."""

    kind: str = ""            # "storage" | "consensus"
    protocol_id: str = ""     # set by register_protocol

    def __init__(self, spec):
        self.sim = Simulator()
        self.network = Network(
            self.sim, delta=spec.delta, rules=spec.faults.rules(),
            trace_level=spec.trace_level,
        )
        self.trace = Trace(
            retain=self.network.trace_level >= TraceLevel.FULL
        )

    # -- uniform access -------------------------------------------------------

    def learner_pids(self) -> Tuple[Hashable, ...]:
        return ()

    def correct_learner_pids(self) -> Tuple[Hashable, ...]:
        return self.learner_pids()

    def history_stats(self) -> Optional[Dict[str, Any]]:
        """Server-side history-matrix accounting; ``None`` for protocols
        whose servers keep no history matrix."""
        return None

    def register_refusal(self, spec) -> Optional[OnlineRefusal]:
        """Why the register checker must not judge this run — at either
        trace level — or None when it may."""
        return OnlineRefusal(
            "not-storage",
            f"protocol {spec.protocol!r} has no register semantics to "
            f"check; its verdict is RunResult.consensus, which needs "
            f"retained records",
        )

    # -- lifecycle hooks ------------------------------------------------------

    @classmethod
    def build(cls, spec) -> "ProtocolAdapter":
        return cls(spec)

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
            # Forever-blocked ops are reported (``RunResult.blocked``).
            self.sim.run_to_completion(strict=False, max_events=max_events)
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


def _addressed(clients: Sequence[Any], index: int, verb: str, noun: str):
    """The client a workload literal addresses by index — a plain
    ``0 <= index < count`` check, never Python's negative indexing."""
    if not 0 <= index < len(clients):
        raise ScenarioError(
            f"workload {verb} {index} but the spec only has "
            f"{len(clients)} {noun}"
        )
    return clients[index]


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


def _require_range(
    adapter: ProtocolAdapter, name: str, value: Any, low: int,
    high: Optional[int] = None,
) -> None:
    """Refuse ``params[name]`` unless it is an int in ``low..high``."""
    if not isinstance(value, int) or not (
        low <= value and (high is None or value <= high)
    ):
        bound = f"{low} <= {name}" + ("" if high is None else f" <= {high}")
        raise ScenarioError(
            f"protocol {adapter.protocol_id!r}: params[{name!r}]={value!r}"
            f" is out of range; need {bound}"
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

class StorageAdapter(ProtocolAdapter):
    """Shared binding and scheduling for every read/write register
    protocol.

    Workload ops address a keyed register space: each op carries its
    ``key`` and (for writes) its ``writer`` index.  One sequential
    client task is spawned per addressed writer and per addressed
    reader (the paper's well-formedness rule, per client); all client
    tasks block on indexed Conditions inside the protocol coroutines,
    never on ad-hoc closures.

    Scheduling is one path: :meth:`_client_ops` picks each addressed
    client's op iterator — an unbounded per-client generator under an
    open-loop stopping rule (``duration``/``max_ops``), a lazy view of
    the seeded draw for a pure single-``RandomMix`` workload, a sorted
    list only where explicit literals have to be merged in — and
    :meth:`schedule` spawns one driver per iterator.
    """

    kind = "storage"
    #: The register semantics the protocol claims, hence what the
    #: register checker judges (``RunResult.atomicity``): ``"atomic"``,
    #: or ``"regular"`` (every rule but read-inversion).
    claim = "atomic"
    #: Whether several writers' stamps order the history the way the
    #: register checker reads them (as the linearization).
    multi_writer_stamps = True

    servers: Dict[Hashable, Any]
    writers: List[Any]
    readers: List[Any]

    def register_refusal(self, spec) -> Optional[OnlineRefusal]:
        if spec.n_writers > 1 and not self.multi_writer_stamps:
            return OnlineRefusal(
                "unsound-stamps",
                f"protocol {spec.protocol!r} with {spec.n_writers} "
                f"writers: its reads return a stamp without writing it "
                f"back, so a later writer's discovery can stamp below a "
                f"value already read — its stamp order is no "
                f"linearization, and judging by it would convict or "
                f"pass the wrong history",
            )
        return None

    def _bind(
        self,
        spec,
        server_ids: Iterable[Hashable],
        make_server: Callable[[Hashable], Process],
        make_writer: Callable[[Hashable, Optional[int]], Process],
        make_reader: Callable[[Hashable], Process],
    ) -> None:
        """Bind this deployment's processes in the storage order:
        servers, then the writer fleet, then ``reader1``…"""
        network = self.network
        self.servers = {
            sid: make_server(sid).bind(network) for sid in server_ids
        }
        self.writers = writer_fleet(
            spec.n_writers,
            lambda pid, writer_id: make_writer(pid, writer_id).bind(network),
        )
        self.readers = [
            make_reader(f"reader{index + 1}").bind(network)
            for index in range(spec.readers)
        ]

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
        writer_ops, reader_ops, batch_size = self._client_ops(spec)
        for index in sorted(writer_ops):
            writer = _addressed(
                self.writers, index,
                "writes via writer", "writers (n_writers)",
            )
            self._spawn_writer(index, writer, batch_size, writer_ops[index])
        for index in sorted(reader_ops):
            reader = _addressed(
                self.readers, index, "reads from reader", "readers"
            )
            self._spawn_reader(reader, batch_size, reader_ops[index])

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

    def _spawn_writer(self, index, writer, batch_size, ops) -> None:
        """One writer's driver task: unbatched sequential ops, or the
        batched coalescing driver when ``batch_size != 1`` (a fixed
        window or the adaptive ``"auto"`` rule)."""
        name = (
            "writer-workload" if index == 0 else f"{writer.pid}-workload"
        )
        if batch_size != 1:
            coro = batched_ops(
                self.sim, self._write_batch_schedule(ops),
                batch_size, writer.write_batch,
            )
        else:
            coro = sequential_ops(
                self.sim, self._write_schedule(ops, writer.write)
            )
        self.sim.spawn(coro, name)

    def _spawn_reader(self, reader, batch_size, ops) -> None:
        if batch_size != 1:
            # A reader's ``(at, key)`` pairs already are batch elements.
            coro = batched_ops(self.sim, ops, batch_size, reader.read_batch)
        else:
            coro = sequential_ops(
                self.sim, self._read_schedule(ops, reader.read)
            )
        self.sim.spawn(coro, f"{reader.pid}-workload")

    def _client_ops(self, spec):
        """``(writer_ops, reader_ops, batch_size)``: every addressed
        client's op iterator by client index — ``(at, value, key)``
        triples for writers, ``(at, key)`` pairs for readers."""
        workload = spec.workload
        open_loop = spec.duration is not None or spec.max_ops is not None
        single_mix = len(workload) == 1 and isinstance(workload[0], RandomMix)
        if not single_mix:
            if open_loop:
                raise ScenarioError(
                    "open-loop runs (duration/max_ops) take exactly one "
                    "RandomMix workload literal, whose counts set the "
                    f"write:read ratio; got {workload!r}"
                )
            return (*self._literal_ops(spec), 1)
        mix = workload[0]
        n_writers, n_readers = len(self.writers), len(self.readers)
        shard = self._shard_of(spec)
        if not open_loop:
            # Closed loop: per-client lazy views of the one seeded draw.
            stream = mix.stream(
                n_readers, spec.seed, n_keys=spec.n_keys,
                n_writers=n_writers, shard=shard,
            )
            return (
                {i: stream.writer_ops(i) for i in stream.writers_with_ops},
                {i: stream.reader_ops(i) for i in stream.readers_with_ops},
                mix.batch_size,
            )
        # Horizon-free: every client draws its next op lazily from an
        # independent seeded generator, stopping on the shared op budget
        # or the duration bound.
        if mix.reads > 0 and n_readers < 1:
            raise ScenarioError(
                f"RandomMix schedules reads (ratio {mix.writes}:"
                f"{mix.reads}) but the scenario has no readers; set "
                f"readers >= 1 (or reads=0)"
            )
        budget = OpBudget(spec.max_ops)

        def clients(role: str, count: int):
            return {
                index: open_loop_stream(
                    mix, role, index, count, spec.seed, budget,
                    spec.duration, n_keys=spec.n_keys, shard=shard,
                )
                for index in range(count)
            }

        return (
            clients("writer", n_writers if mix.writes > 0 else 0),
            clients("reader", n_readers if mix.reads > 0 else 0),
            mix.batch_size,
        )

    def _literal_ops(self, spec):
        """Explicit ``Write``/``Read`` literals, merged with the
        closed-loop views of any ``RandomMix`` riding along (its write
        values continue past the literals' integers) and stably sorted
        by start time per client."""
        writer_ops: Dict[int, List[Tuple[float, Any, Hashable]]] = {}
        reader_ops: Dict[int, List[Tuple[float, Hashable]]] = {}
        next_value = 1
        for op in spec.workload:
            if isinstance(op, Write):
                writer_ops.setdefault(op.writer, []).append(
                    (op.at, op.value, op.key)
                )
                if isinstance(op.value, int):
                    next_value = max(next_value, op.value + 1)
            elif isinstance(op, Read):
                reader_ops.setdefault(op.reader, []).append((op.at, op.key))
            elif isinstance(op, RandomMix):
                if op.batch_size != 1:
                    raise ScenarioError(
                        f"batch_size={op.batch_size!r} requires a pure "
                        "single-RandomMix workload (the streaming paths); "
                        "it cannot ride along in a mixed-literal expansion"
                    )
                stream = op.stream(
                    len(self.readers), spec.seed, first_value=next_value,
                    n_keys=spec.n_keys, n_writers=len(self.writers),
                )
                next_value += op.writes
                for index in stream.writers_with_ops:
                    writer_ops.setdefault(index, []).extend(
                        stream.writer_ops(index)
                    )
                for index in stream.readers_with_ops:
                    reader_ops.setdefault(index, []).extend(
                        stream.reader_ops(index)
                    )
            else:
                raise ScenarioError(
                    f"storage protocol {self.protocol_id!r} cannot run "
                    f"workload op {op!r}"
                )
        for ops in (*writer_ops.values(), *reader_ops.values()):
            ops.sort(key=itemgetter(0))
        return writer_ops, reader_ops


@register_protocol("rqs-storage")
class RqsStorageAdapter(StorageAdapter):
    """The paper's Byzantine atomic storage (Figures 5-7) over any RQS.

    ``quorum_strategy`` gives every client a
    :class:`~repro.core.strategy.QuorumSelector` with its own seeded RNG
    stream (none exists without a strategy, so broadcast executions stay
    bit-identical); ``params["capacity_model"]`` deploys
    :class:`~repro.storage.server.RateLimitedServer` nodes whose service
    costs are the reciprocals of the RQS's per-node capacities.
    """

    reader_class = StorageReader

    def __init__(self, spec):
        rqs = spec.resolved_rqs()
        if rqs is None:
            raise ScenarioError(
                f"{self.protocol_id} requires a quorum system"
            )
        capacity_model = bool(spec.param("capacity_model", False))
        if capacity_model and not getattr(rqs, "read_capacity", None):
            raise ScenarioError(
                "capacity_model requires an RQS with per-node capacities "
                "(lift one from a quorum expression, e.g. rqs='grid-hetero')"
            )
        factories = {
            role.process: role.factory
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
        strategy = _resolve_strategy(spec, rqs)
        super().__init__(spec)
        self.rqs = rqs
        self.bounded_history = bool(spec.param("bounded_history", False))
        read_caps = getattr(rqs, "read_capacity", None) or {}
        write_caps = getattr(rqs, "write_capacity", None) or {}

        def make_server(sid: Hashable) -> StorageServer:
            # Explicit per-role factories (Byzantine variants) take
            # precedence over the benign default.
            factory = factories.get(sid)
            if factory is not None:
                return factory(sid)
            if capacity_model:
                return RateLimitedServer(
                    sid,
                    read_cost=1.0 / float(read_caps.get(sid, 1)),
                    write_cost=1.0 / float(write_caps.get(sid, 1)),
                    bounded_history=self.bounded_history,
                )
            return StorageServer(sid, bounded_history=self.bounded_history)

        def selector(pid: Hashable) -> Optional[QuorumSelector]:
            if strategy is None:
                return None
            return QuorumSelector(strategy, spec.seed, pid)

        self._bind(
            spec, rqs.servers, make_server,
            lambda pid, writer_id: StorageWriter(
                pid, rqs, self.trace, delta=spec.delta,
                writer_id=writer_id, selector=selector(pid),
            ),
            lambda pid: self.reader_class(
                pid, rqs, self.trace, delta=spec.delta,
                selector=selector(pid),
            ),
        )

    def history_stats(self) -> Dict[str, Any]:
        """Aggregate history-matrix accounting over the benign servers.

        ``retained_cells`` is the live cell count, ``max_retained_cells``
        the sum of per-server high-water marks (an upper bound on
        co-occurring retention — the flat-RSS gate for bounded soaks),
        ``gc_removed_cells`` the total cells garbage-collected.
        Byzantine servers are left out: their state forgeries mutate
        histories behind the counters.
        """
        retained = removed = high_water = 0
        for server in self.servers.values():
            if server.benign:
                retained += server.history_cells
                removed += server.gc_removed
                high_water += server.max_history_cells
        return {
            "bounded_history": self.bounded_history,
            "retained_cells": retained,
            "max_retained_cells": high_water,
            "gc_removed_cells": removed,
        }


@register_protocol("rqs-regular")
class RqsRegularAdapter(RqsStorageAdapter):
    """The Section 6 regular-semantics register: the rqs-storage
    deployment whose readers are
    :class:`~repro.storage.regular.RegularReader`\\ s (no write-back).
    It claims regularity, not atomicity, so the register checker runs
    without its read-inversion rule: ``RunResult.atomicity.regular`` is
    the verdict (``.atomic`` is never claimed, hence False)."""

    reader_class = RegularReader
    claim = "regular"


class RegisterAdapter(StorageAdapter):
    """The crash-model count-quorum baselines — classic ABD, the
    Section 1.2 fast variant and the broken greedy algorithm of
    Figure 1 — each one row of :data:`repro.storage.abd.PROTOCOLS`:
    ``params["n"]`` servers (``1..n``), up to ``params["t"]`` crash
    failures, ``params["fast"]`` acks to exit a write round early.  The
    defaults are the paper's Section 1.2 instance (``n=5, t=2,
    fast=4``); every row refuses ``n < 1``, ``t`` outside ``0..n-1`` and
    ``fast`` outside ``1..n``, even the rows whose thresholds do not
    depend on ``t`` or ``fast``."""

    def __init__(self, spec):
        _unsupported_roles(self, spec)
        _unsupported_strategy(self, spec)
        n, t = spec.param("n", 5), spec.param("t", 2)
        fast = spec.param("fast", 4)
        _require_range(self, "n", n, 1)
        _require_range(self, "t", t, 0, n - 1)
        _require_range(self, "fast", fast, 1, n)
        super().__init__(spec)
        protocol = PROTOCOLS[self.protocol_id]
        server_ids = tuple(range(1, n + 1))
        self._bind(
            spec, server_ids,
            lambda sid: RegisterServer(sid, protocol.slots),
            lambda pid, writer_id: RegisterWriter(
                pid, server_ids, self.trace, protocol, t, fast,
                spec.delta, writer_id=writer_id,
            ),
            lambda pid: RegisterReader(
                pid, server_ids, self.trace, protocol, t, spec.delta
            ),
        )


# One registration per table row (a subclass each, because
# ``register_protocol`` stamps the id on the class it registers).  The
# naive row never writes back, so its multi-writer stamps order nothing.
for _protocol_id, _row in PROTOCOLS.items():
    register_protocol(_protocol_id)(type(
        f"RegisterAdapter[{_protocol_id}]", (RegisterAdapter,),
        {"multi_writer_stamps": _row is not NAIVE},
    ))


# -- consensus ----------------------------------------------------------------

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

    def __init__(self, spec):
        _unsupported_strategy(self, spec)
        rqs = spec.resolved_rqs()
        if rqs is None:
            raise ScenarioError("rqs-consensus requires a quorum system")
        acceptor_factories = {
            role.process: role.factory
            for role in spec.faults.byzantine_for(ACCEPTOR)
        }
        proposer_factories = {
            role.process: role.factory
            for role in spec.faults.byzantine_for(PROPOSER)
        }
        super().__init__(spec)
        self.rqs = rqs
        network, delta = self.network, spec.delta
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
    """Single-decree crash Paxos baseline (``params["n_acceptors"]``
    acceptors ``1..n``, default 5)."""

    def __init__(self, spec):
        _unsupported_roles(self, spec)
        _unsupported_strategy(self, spec)
        super().__init__(spec)
        network = self.network
        n_acceptors = spec.param("n_acceptors", 5)
        acceptor_ids = tuple(range(1, n_acceptors + 1))
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
            PaxosLearner(lid, n_acceptors, self.trace).bind(network)
            for lid in learner_ids
        ]


@register_protocol("pbft")
class PbftAdapter(ConsensusAdapter):
    """PBFT-lite baseline (fault-free normal case, fixed primary):
    ``3f + 1`` replicas for ``params["f"]`` (default 1)."""

    def __init__(self, spec):
        _unsupported_roles(self, spec)
        _unsupported_strategy(self, spec)
        super().__init__(spec)
        network = self.network
        f = spec.param("f", 1)
        replica_ids = tuple(range(1, 3 * f + 2))
        learner_ids = _learner_ids(spec)
        self.replicas = {
            rid: PbftReplica(
                rid, replica_ids, learner_ids, f, primary=replica_ids[0]
            ).bind(network)
            for rid in replica_ids
        }
        self.learners = [
            PbftLearner(lid, f, self.trace).bind(network)
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
