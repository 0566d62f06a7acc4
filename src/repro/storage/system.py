"""End-to-end wiring for storage executions.

:class:`StorageSystem` assembles a simulator, a network, an RQS, servers
(benign or Byzantine, with optional crash schedules), a writer fleet and
any number of readers, and exposes convenience drivers for scripted and
randomized workloads.  All operations are recorded in a shared
:class:`~repro.sim.trace.Trace` consumed by the checkers.

This class is the thin wiring behind the ``"rqs-storage"`` protocol of
:mod:`repro.scenarios` — prefer building a
:class:`~repro.scenarios.ScenarioSpec` and calling
:func:`repro.scenarios.run` over instantiating it directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.network import Rule, TraceLevel
from repro.sim.trace import OperationRecord
from repro.storage.deployment import Deployment
from repro.storage.reader import StorageReader
from repro.storage.server import RateLimitedServer, StorageServer
from repro.storage.writer import StorageWriter

ServerFactory = Callable[[Hashable], StorageServer]


class StorageSystem(Deployment):
    """The RQS storage deployment (shared wiring in
    :class:`~repro.storage.deployment.Deployment`).

    The register space is keyed: every operation addresses one register
    (the default key reproduces the historical single register).
    ``n_writers=1`` (the paper's SWMR model) keeps the single ``writer``
    with bare timestamps; ``n_writers > 1`` deploys indexed writers
    whose stamped timestamps are totally ordered across writers (see
    :mod:`repro.storage.writer`).  ``n_keys`` documents the intended
    keyspace width for workload expansion — server state is created
    lazily per key, so it does not bound the keys clients may address.

    ``strategy`` (a :class:`~repro.core.strategy.Strategy`) makes every
    client draw its per-operation quorum from the strategy's seeded
    distribution and contact only its members; ``capacity_model=True``
    deploys :class:`~repro.storage.server.RateLimitedServer` nodes whose
    service costs are the reciprocals of the RQS's per-node capacities.
    Both default off, leaving historical executions bit-identical.
    """

    def __init__(
        self,
        rqs: RefinedQuorumSystem,
        n_readers: int = 2,
        delta: float = 1.0,
        server_factories: Optional[Dict[Hashable, ServerFactory]] = None,
        crash_times: Optional[Dict[Hashable, float]] = None,
        rules: Optional[Sequence[Rule]] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        n_writers: int = 1,
        n_keys: int = 1,
        strategy=None,
        strategy_seed: int = 0,
        capacity_model: bool = False,
        bounded_history: bool = False,
    ):
        self.rqs = rqs
        self.n_keys = n_keys
        self.strategy = strategy
        self.strategy_seed = strategy_seed
        self.bounded_history = bounded_history
        self.capacity_model = capacity_model
        self._server_factories = server_factories or {}
        super().__init__(
            rqs.servers,
            n_readers=n_readers, delta=delta, crash_times=crash_times,
            rules=rules, trace_level=trace_level, n_writers=n_writers,
        )

    def make_server(self, sid: Hashable) -> StorageServer:
        # Explicit per-role factories (Byzantine variants) take
        # precedence over the benign default.
        factory = self._server_factories.get(sid)
        if factory is not None:
            return factory(sid)
        if self.capacity_model:
            # Finite service capacity per node: serving costs the
            # reciprocal of the node's (read/write) capacity.
            read_caps = getattr(self.rqs, "read_capacity", None) or {}
            write_caps = getattr(self.rqs, "write_capacity", None) or {}
            return RateLimitedServer(
                sid,
                read_cost=1.0 / float(read_caps.get(sid, 1)),
                write_cost=1.0 / float(write_caps.get(sid, 1)),
                bounded_history=self.bounded_history,
            )
        return StorageServer(sid, bounded_history=self.bounded_history)

    def _selector_for(self, pid: Hashable):
        """A per-client quorum selector (own seeded RNG stream), or
        ``None`` when no strategy is configured — in which case no
        strategy RNG exists at all and executions are bit-identical
        to the historical broadcast behaviour."""
        if self.strategy is None:
            return None
        from repro.core.strategy import QuorumSelector

        return QuorumSelector(self.strategy, self.strategy_seed, pid)

    def make_writer(self, pid: Hashable, writer_id: Optional[int]):
        return StorageWriter(
            pid, self.rqs, self.trace, delta=self.delta,
            writer_id=writer_id, selector=self._selector_for(pid),
        )

    def make_reader(self, pid: Hashable):
        return StorageReader(
            pid, self.rqs, self.trace, delta=self.delta,
            selector=self._selector_for(pid),
        )

    # -- scripted drivers ------------------------------------------------------

    def write_at(self, time: float, value: Any):
        """Schedule a write invocation; returns the spawned task holder."""
        holder: Dict[str, Any] = {}

        def start() -> None:
            holder["task"] = self.sim.spawn(
                self.writer.write(value), f"write({value!r})@{time}"
            )

        self.sim.call_at(time, start)
        return holder

    def read_at(self, time: float, reader_index: int = 0):
        """Schedule a read invocation on the given reader."""
        holder: Dict[str, Any] = {}
        reader = self.readers[reader_index]

        def start() -> None:
            holder["task"] = self.sim.spawn(
                reader.read(), f"{reader.pid}.read()@{time}"
            )

        self.sim.call_at(time, start)
        return holder

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_to_completion(self, strict: bool = False) -> None:
        self.sim.run_to_completion(strict=strict)

    # -- randomized workload -------------------------------------------------------

    def random_workload(
        self,
        n_writes: int,
        n_reads: int,
        horizon: float,
        seed: int = 0,
    ) -> None:
        """Schedule a random mix of operations over ``[0, horizon)``.

        Per the paper's model no client invokes an operation before its
        previous one completed, so each client runs its operations
        sequentially: an operation scheduled for time ``t`` starts at
        ``max(t, previous completion)``.  Writes carry sequential integer
        values (easy to order-check); reads are spread over the readers.
        Deterministic per seed — the draw is shared with the scenario
        layer's :class:`~repro.scenarios.RandomMix` expansion.
        """
        from repro.scenarios.workloads import RandomMix, expand_random_mix

        writes, per_reader = expand_random_mix(
            RandomMix(n_writes, n_reads, horizon=horizon),
            len(self.readers),
            seed,
        )
        self.sim.spawn(
            self._sequential_ops(
                [(w.at, self.writer.write, (w.value, w.key)) for w in writes]
            ),
            "writer-workload",
        )
        for reader_index, ops in per_reader.items():
            reader = self.readers[reader_index]
            self.sim.spawn(
                self._sequential_ops(
                    [(op.at, reader.read, (op.key,)) for op in ops]
                ),
                f"{reader.pid}-workload",
            )

    def _sequential_ops(self, schedule):
        """One client's operations back to back (shared driver)."""
        from repro.sim.tasks import sequential_ops

        return sequential_ops(self.sim, schedule)

    # -- reporting -----------------------------------------------------------------

    def history_stats(self) -> Dict[str, Any]:
        """Aggregate server-side history-matrix accounting.

        ``retained_cells`` is the live cell count summed over benign
        servers, ``max_retained_cells`` the sum of per-server high-water
        marks (an upper bound on co-occurring retention — the flat-RSS
        gate for bounded soaks), ``gc_removed_cells`` the total cells
        garbage-collected.  Byzantine state forgeries mutate histories
        behind the counters, so Byzantine runs report the benign
        servers' view only.
        """
        retained = removed = high_water = 0
        for server in self.servers.values():
            retained += server.history_cells
            removed += server.gc_removed
            high_water += server.max_history_cells
        return {
            "bounded_history": self.bounded_history,
            "retained_cells": retained,
            "max_retained_cells": high_water,
            "gc_removed_cells": removed,
        }

    def operations(self) -> Tuple[OperationRecord, ...]:
        return self.trace.records

    def completed_operations(self) -> Tuple[OperationRecord, ...]:
        return self.trace.completed()
