"""Protocol adapters: a declarative spec, wired.

An adapter **is** the deployment: constructing one from a
:class:`~repro.scenarios.spec.ScenarioSpec` creates the simulator, the
network (with the fault plan's rules) and the trace, then binds the
protocol's processes straight from the spec and keeps the role lists as
its own attributes (``servers``/``writers``/``readers`` for storage,
``proposers``/``acceptors``/``learners`` — ``replicas``/``client`` for
PBFT — for consensus).  This module is the only place outside
:mod:`repro.sim` that constructs a ``Simulator`` or a ``Network``
(``tests/test_invariants.py`` holds that by scanning sources): every
adapter inherits :class:`ProtocolAdapter`'s constructor.

It holds what the families share — :class:`ProtocolAdapter` and the
register clients' :class:`StorageAdapter` — and the registry rows live
with their protocols, one module per family, imported on the first
lookup of one of their ids (:mod:`repro.scenarios.registry`):

* :mod:`repro.scenarios.abd_adapters` — ``abd`` / ``fastabd`` /
  ``naive``, the rows of the count-quorum kernel;
* :mod:`repro.scenarios.rqs_adapters` — ``rqs-storage`` /
  ``rqs-regular``, Figures 5–7 and the Section 6 reader;
* :mod:`repro.scenarios.consensus_adapters` — ``rqs-consensus`` /
  ``paxos`` / ``pbft``.

**Bind order is part of every pinned execution** — processes that
schedule events as they are bound (the time-triggered Byzantine servers)
take their queue position from it, and clients are spawned in role-list
order — so each family fixes it once:

* storage: servers (``rqs.servers`` / ``1..n`` order) → writers
  (:func:`~repro.storage.stamping.writer_fleet` names) → readers
  (``reader1``…), in :meth:`StorageAdapter._bind`;
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

from operator import itemgetter
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

from repro.analysis.streaming import OnlineRefusal
from repro.errors import CheckerError, ScenarioError
from repro.scenarios.workloads import (
    OpBudget,
    RandomMix,
    Read,
    Write,
    open_loop_stream,
)
from repro.sim.network import Network, TraceLevel
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.tasks import batched_ops, sequential_ops
from repro.sim.trace import Trace
from repro.storage.stamping import writer_fleet


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

    def check_consensus(self, records, **kwargs):
        """The Section 4.1 verdict over this run's records
        (``RunResult.consensus``).  The consensus family judges its
        rows (:class:`~repro.scenarios.consensus_adapters.ConsensusAdapter`);
        every other row refuses, as the register checker refuses a
        consensus row."""
        raise CheckerError(
            f"the consensus checker refuses this run: protocol "
            f"{self.protocol_id!r} has no consensus semantics to check; "
            f"its verdict is RunResult.atomicity"
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
        batched coalescing driver when ``batch_size != 1``."""
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
