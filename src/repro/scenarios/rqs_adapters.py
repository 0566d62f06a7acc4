"""The RQS storage registry rows: ``rqs-storage`` and ``rqs-regular``.

The paper's Byzantine atomic storage (Figures 5–7) over any refined
quorum system, and its Section 6 regular-semantics twin.  The registry
imports this module on the first lookup of either id; it brings the
RQS stack (:mod:`repro.storage.reader` / ``writer`` / ``server`` /
``predicates``, :mod:`repro.core.rqs`) and nothing of the consensus
half.  The quorum-strategy solver, :mod:`repro.core.strategy`, is
imported only where a spec's ``quorum_strategy`` is read — a spec
that sets one loads it when it is built — so a broadcast run never
compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional

from repro.errors import ScenarioError
from repro.scenarios.adapters import StorageAdapter, _byzantine_factories
from repro.scenarios.registry import register_protocol
from repro.scenarios.workloads import RandomMix
from repro.storage.reader import StorageReader
from repro.storage.regular import RegularReader
from repro.storage.server import RateLimitedServer, StorageServer
from repro.storage.writer import StorageWriter

if TYPE_CHECKING:
    from repro.core.strategy import QuorumSelector, Strategy


def _workload_read_fraction(spec) -> Fraction:
    """The read fraction a strategy plans for: the reads of the spec's
    one :class:`RandomMix` over its operations (1/2 for an empty mix).
    A strategy spec runs one mix literal and nothing else."""
    workload = spec.workload
    if len(workload) != 1 or not isinstance(workload[0], RandomMix):
        raise ScenarioError(
            f"quorum_strategy={spec.quorum_strategy!r} reads its read "
            f"fraction off the workload's one RandomMix literal, the only "
            f"workload form it takes; got {workload!r}"
        )
    mix = workload[0]
    total = mix.reads + mix.writes
    return Fraction(mix.reads, total) if total else Fraction(1, 2)


def _resolve_strategy(spec, rqs) -> Optional[Strategy]:
    """Build the ``"uniform"`` or ``"optimal"`` strategy a spec names
    over the resolved RQS.

    The distributions range over the RQS's (single) quorum family —
    read operations draw from the strategy's read distribution, write
    operations from its write distribution.  Per-node capacities are
    taken from the RQS when it carries them (the expression lift's
    :class:`~repro.core.algebra.CapacitatedRqs`), else unit.
    """
    choice = spec.quorum_strategy
    if choice is None:
        return None
    from repro.core.strategy import optimal_strategy, uniform_strategy

    family = rqs.quorums
    read_caps = getattr(rqs, "read_capacity", None) or None
    write_caps = getattr(rqs, "write_capacity", None) or None
    fr = _workload_read_fraction(spec)
    build = uniform_strategy if choice == "uniform" else optimal_strategy
    return build(family, family, read_fraction=fr,
                 read_capacity=read_caps, write_capacity=write_caps)


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
    param_keys = (
        "bounded_history", "capacity_model", *StorageAdapter.param_keys,
    )

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
        factories = _byzantine_factories(
            self, spec, server=rqs.servers
        )["server"]
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
            from repro.core.strategy import QuorumSelector

            return QuorumSelector(strategy, spec.seed, pid)

        delta = self.network.delta
        self._bind(
            spec, rqs.servers, make_server,
            lambda pid, writer_id: StorageWriter(
                pid, rqs, self.trace, delta=delta,
                writer_id=writer_id, selector=selector(pid),
            ),
            lambda pid: self.reader_class(
                pid, rqs, self.trace, delta=delta,
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
    without its read-inversion rule: ``RunResult.atomicity.verdict``
    reads ``"regular"`` when it held (``.atomic`` is never claimed,
    hence False)."""

    reader_class = RegularReader
    claim = "regular"
