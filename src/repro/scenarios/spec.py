"""The declarative scenario specification.

A :class:`ScenarioSpec` is a frozen literal describing one complete
execution: which protocol runs, over which refined quorum system (an
:class:`~repro.core.rqs.RefinedQuorumSystem` instance, a registered
name or a construction string), how many clients participate, the
fault plan, the workload, the seed, and how long to run.  Time is
counted in message delays: every deployment runs its network at the
synchrony bound Δ = 1.  ``run(spec)`` in
:mod:`repro.scenarios.runner` is the only step between a spec and a
checked :class:`~repro.scenarios.result.RunResult`.
"""

from __future__ import annotations

from dataclasses import field
from functools import lru_cache
from importlib import import_module
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple, Union,
)

from repro.errors import ScenarioError, SimulationError
from repro.records import record
from repro.scenarios.faults import FaultPlan
from repro.scenarios.registry import get_protocol
from repro.scenarios.workloads import RandomMix, Workload, WorkloadOp
from repro.sim.network import TraceLevel

if TYPE_CHECKING:
    from repro.core.rqs import RefinedQuorumSystem

RqsSpec = Union["RefinedQuorumSystem", str, None]

#: Legal string values of ``ScenarioSpec.quorum_strategy``.
STRATEGY_NAMES = ("uniform", "optimal")

# -- named quorum-system constructions ----------------------------------------

_NAMED_RQS: Dict[str, Callable[[], RefinedQuorumSystem]] = {}
#: The system each registered name resolved to, built (and validated)
#: once per process and never evicted: the registry bounds it.
#: Construction strings such as ``"threshold:8,3,1,1,2"`` are kept by
#: :func:`_construct`, a bounded cache instead.
_BUILT_RQS: Dict[str, RefinedQuorumSystem] = {}

def register_rqs(name: str, factory: Callable[[], RefinedQuorumSystem]) -> None:
    """Register a named RQS construction usable as ``ScenarioSpec.rqs``."""
    if name in _NAMED_RQS:
        raise ScenarioError(f"RQS name {name!r} already registered")
    _NAMED_RQS[name] = factory


def named_rqs() -> Tuple[str, ...]:
    return tuple(sorted(_NAMED_RQS))


def _deferred(module: str, function: str, *args: Any,
              **kwargs: Any) -> Callable[[], RefinedQuorumSystem]:
    """A factory calling ``module.function(*args, **kwargs)``: the
    module is imported when the name is first resolved, not when it is
    registered."""

    def build() -> RefinedQuorumSystem:
        return getattr(import_module(module), function)(*args, **kwargs)

    return build


_BUILDERS = "repro.core.constructions"

register_rqs("example6", _deferred(_BUILDERS, "threshold_rqs",
                                   8, 3, 1, 1, 2))
register_rqs("example6-broken-p3",
             _deferred(_BUILDERS, "threshold_rqs",
                       8, 3, 1, 1, 3, validate=False))
register_rqs("example7", _deferred(_BUILDERS, "example7_rqs"))
register_rqs("figure3", _deferred(_BUILDERS, "figure3_rqs"))
register_rqs("section12", _deferred(_BUILDERS, "section12_rqs"))
# Expression-defined systems (the quorum algebra lift, the one way a
# planning-level ``QuorumSystem`` reaches a spec): the 2×3 grid
# ``a*b*c + d*e*f`` with heterogeneous / homogeneous node capacities.
register_rqs("grid-hetero", _deferred("repro.core.algebra", "demo_grid_rqs",
                                      heterogeneous=True))
register_rqs("grid-homog", _deferred("repro.core.algebra", "demo_grid_rqs",
                                     heterogeneous=False))


def resolve_rqs(spec: RqsSpec) -> Optional[RefinedQuorumSystem]:
    """Resolve a spec's ``rqs`` field to a concrete system.

    Accepts ``None`` (for protocols that do not take an RQS), an
    instance, a registered name or a parameterized construction string:

    ``"threshold:n,t,k,q,r"`` — Example 6, validated (an unvalidated
    system is built with ``threshold_rqs(..., validate=False)`` and
    passed as an instance).

    A system is immutable apart from its lazily built index, so one
    built from a string is shared, like a registered one: every
    resolution of one name in a process yields the same instance, and
    so does every resolution of one construction string while it is
    among the last eight built (:func:`_construct`).  A grid over a
    thousand distinct strings therefore keeps at most eight systems.
    """
    if spec is None:
        return None
    if not isinstance(spec, str):
        from repro.core.rqs import RefinedQuorumSystem

        if isinstance(spec, RefinedQuorumSystem):
            return spec
        raise ScenarioError(
            f"rqs must be None, a RefinedQuorumSystem, a registered name "
            f"or a threshold:n,t,k,q,r string; got {spec!r} (a quorum "
            f"expression runs through its registered lift, e.g. "
            f"'grid-hetero')"
        )
    if spec in _NAMED_RQS:
        rqs = _BUILT_RQS.get(spec)
        if rqs is None:
            rqs = _BUILT_RQS[spec] = _NAMED_RQS[spec]()
        return rqs
    if spec.startswith("threshold:"):
        return _construct(spec)
    raise ScenarioError(
        f"unknown RQS name {spec!r}; known names: {', '.join(named_rqs())} "
        f"or threshold:n,t,k,q,r"
    )


@lru_cache(maxsize=8)
def _construct(spec: str) -> RefinedQuorumSystem:
    """Parse and build a ``threshold:n,t,k,q,r`` construction string —
    five integers, validated — once per string while it stays cached.
    A string that fails to parse or to validate raises, and nothing is
    kept."""
    from repro.core.constructions import threshold_rqs

    try:
        n, t, k, q, r = (int(a) for a in spec.partition(":")[2].split(","))
        return threshold_rqs(n, t, k, q, r)
    except ValueError as exc:
        raise ScenarioError(
            f"bad RQS construction {spec!r}: {exc} (the one form is "
            f"threshold:n,t,k,q,r, five integers)"
        )


# -- the spec itself -----------------------------------------------------------

@record(frozen=True)
class ScenarioSpec:
    """A complete declarative description of one execution.

    Parameters
    ----------
    protocol:
        A registered protocol id (see
        :func:`repro.scenarios.registry.available_protocols`), resolved
        when the spec is built: the registry imports the id's family
        module then, and an unknown id raises
        :class:`~repro.errors.UnknownProtocolError` there.
    rqs:
        The refined quorum system (instance, registered name or
        construction string); ``None`` for the fixed-size baselines
        (the ABD kernel, Paxos, PBFT).  It is resolved
        (:func:`resolve_rqs`) when the spec is built, so the system is
        built in set-up and an unknown name — or a value of any other
        kind — raises :class:`~repro.errors.ScenarioError` there.
    readers / proposers / learners:
        Client counts; each adapter uses the ones its protocol has.
    n_writers:
        Writer-client count for storage protocols.  ``1`` (default) is
        the paper's SWMR model with the historical bare timestamps;
        more writers deploy indexed clients whose stamped timestamps
        are totally ordered across writers (each preceded by a
        timestamp-discovery round — see :mod:`repro.storage.writer`).
    n_keys:
        Width of the keyed register space used by
        :class:`~repro.scenarios.workloads.RandomMix` keyspace draws
        (keys ``0 .. n_keys-1``; explicit ``Write``/``Read`` literals
        may address any hashable key regardless).  ``1`` (default)
        keeps every operation on the default register.
    faults:
        The adversary's :class:`~repro.scenarios.faults.FaultPlan`.
    workload:
        A tuple of workload operation literals.
    seed:
        Seed for randomized workload expansion (deterministic per seed).
    horizon:
        Run until this simulated time; ``None`` runs to completion.
    duration / max_ops:
        The **open-loop stopping rule** — an alternative to fixed
        workload counts for horizon-free streaming runs.  Setting either
        switches a single-``RandomMix`` storage workload to open-loop
        generation: clients draw their next operation lazily (O(1)
        state per client; the mix's counts become rate/ratio
        parameters) and stop issuing once ``max_ops`` operations have
        started globally, or once a client's next start time reaches
        ``duration`` simulated time units — whichever comes first.
        In-flight operations still run to completion.  Consensus
        protocols reject both fields.
    trace_level:
        How much history the execution retains — a
        :class:`~repro.sim.network.TraceLevel` or its name
        (``"metrics"``/``"records"``/``"full"``).  ``RECORDS`` (default)
        keeps every operation record (the post-hoc verdicts,
        ``fingerprint()`` and the consensus check read them) and no
        message log; ``FULL`` adds the log (``Network.log``, read only
        by tests, which refuses at the lower levels); ``METRICS`` keeps
        counters, latency accumulators and the online verdict only,
        bounding memory on big sweeps/benchmarks.  Held messages stay
        releasable at every level.
    quorum_strategy:
        How storage clients pick the quorum each operation contacts.
        ``None`` (default) is the paper's model — broadcast to the
        ground set and return on the first responding quorum; it is
        bit-identical to all pre-strategy executions.  ``"uniform"``
        draws uniformly over the RQS's quorums; ``"optimal"`` draws
        from the load-optimal LP distribution of
        :func:`repro.core.strategy.optimal_strategy` (the read fraction
        is taken from the workload, which must be one ``RandomMix``
        literal, and per-node capacities from the RQS when it carries
        them).  No other value is accepted.
        Strategy draws consume a dedicated per-client RNG stream, never
        the workload RNGs.  Only the ``rqs-storage`` protocol supports
        the knob.  A spec that sets it imports the solver,
        :mod:`repro.core.strategy`, when it is built.
    params:
        Protocol-specific extras.  Each registry row declares the keys
        it reads (its adapter's ``param_keys``) and the spec refuses any
        other key, by name, when it is built: ``bounded_history`` /
        ``capacity_model`` on the RQS storage rows, ``sync_delay`` /
        ``proposer_values`` on ``rqs-consensus``, and on every storage
        row the ``shard_index`` / ``shard_count`` view
        :func:`~repro.scenarios.sharding.shard_spec` sets.  The kernel
        rows, Paxos and PBFT deploy fixed sizes and read none.
    shards:
        Split the run over this many **key shards**, each simulated in
        its own worker process (``1``, the default, is the historical
        single-process execution).  Single-writer keys are independent
        by construction, so a keyed streaming soak partitions cleanly:
        every key of ``range(n_keys)`` is deterministically assigned to
        one shard by a pure function of the spec — the historical crc32
        rule for uniform mixes, a load-weighted LPT bin-pack for
        zipfian ones (see
        :func:`repro.scenarios.workloads.shard_assignment`) — each
        shard runs the *same* workload draw filtered to its own keys,
        and
        ``run(spec)`` dispatches to
        :func:`repro.scenarios.sharding.run_sharded`, which merges the
        per-shard streams into one aggregate
        :class:`~repro.scenarios.sharding.ShardedRunResult`.  Requires
        a storage protocol, a single-``RandomMix`` workload at
        ``TraceLevel.METRICS``, the open-loop stopping rule
        (``duration`` or ``max_ops``), and ``n_keys >= shards``.  Such
        a spec imports the process-pool stack
        (``concurrent.futures.process``, and the
        ``multiprocessing.popen_fork`` / ``.synchronize`` its first fork
        needs) when it is built; no other spec loads it.
    """

    protocol: str
    rqs: RqsSpec = None
    readers: int = 2
    proposers: int = 2
    learners: int = 3
    n_writers: int = 1
    n_keys: int = 1
    faults: FaultPlan = field(default_factory=FaultPlan)
    workload: Workload = ()
    seed: int = 0
    horizon: Optional[float] = None
    duration: Optional[float] = None
    max_ops: Optional[int] = None
    trace_level: Union[TraceLevel, str] = TraceLevel.RECORDS
    quorum_strategy: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    shards: int = 1

    def __post_init__(self):
        # Resolving the id imports its family's module here, where the
        # spec literal is built, never inside a timed ``run``; so does
        # resolving an RQS name (an unknown one raises here), and so
        # do the strategy solver and a sharded run's pool stack below.
        adapter = get_protocol(self.protocol)
        if self.rqs is not None:
            resolve_rqs(self.rqs)
        object.__setattr__(self, "workload", tuple(self.workload))
        if self.quorum_strategy is not None:
            if self.quorum_strategy not in STRATEGY_NAMES:
                raise ScenarioError(
                    f"quorum_strategy must be None, 'uniform' or "
                    f"'optimal'; got {self.quorum_strategy!r}"
                )
            import repro.core.strategy  # noqa: F401
        if self.n_writers < 1:
            raise ScenarioError(
                f"n_writers must be >= 1, got {self.n_writers}"
            )
        if self.n_keys < 1:
            raise ScenarioError(f"n_keys must be >= 1, got {self.n_keys}")
        if self.duration is not None and self.duration <= 0:
            raise ScenarioError(
                f"duration must be positive, got {self.duration}"
            )
        if self.max_ops is not None and self.max_ops < 1:
            raise ScenarioError(
                f"max_ops must be >= 1, got {self.max_ops}"
            )
        try:
            object.__setattr__(
                self, "trace_level", TraceLevel.of(self.trace_level)
            )
        except SimulationError as exc:
            raise ScenarioError(str(exc)) from exc
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ScenarioError(
                f"shards must be an int >= 1, got {self.shards!r}"
            )
        if self.shards > 1:
            if len(self.workload) != 1 or not isinstance(
                self.workload[0], RandomMix
            ):
                raise ScenarioError(
                    "sharded runs (shards > 1) take exactly one RandomMix "
                    "workload literal — the keyed stream is what "
                    f"partitions across shards; got {self.workload!r}"
                )
            if self.n_keys < self.shards:
                raise ScenarioError(
                    f"shards={self.shards} needs n_keys >= shards so every "
                    f"shard owns at least one register; got "
                    f"n_keys={self.n_keys}"
                )
            if self.trace_level is not TraceLevel.METRICS:
                raise ScenarioError(
                    "sharded runs stream: only counters, accumulators and "
                    "online verdicts cross the process boundary, so "
                    "shards > 1 requires trace_level='metrics'"
                )
            if self.duration is None and self.max_ops is None:
                raise ScenarioError(
                    "sharded runs (shards > 1) are open-loop: set "
                    "duration or max_ops, or run the closed-loop mix "
                    "with shards=1"
                )
            if self.max_ops is not None and self.max_ops < self.shards:
                raise ScenarioError(
                    f"max_ops={self.max_ops} cannot be split over "
                    f"{self.shards} shards (each shard needs an op budget "
                    f">= 1)"
                )
            # The pool stack, and what its first fork imports.
            import concurrent.futures.process  # noqa: F401
            import multiprocessing.popen_fork  # noqa: F401
            import multiprocessing.synchronize  # noqa: F401
        object.__setattr__(
            self, "params", MappingProxyType(dict(self.params))
        )
        unread = [key for key in self.params if key not in adapter.param_keys]
        if unread:
            raise ScenarioError(
                f"protocol {self.protocol!r} reads no params key "
                f"{', '.join(map(repr, unread))}; the keys it reads: "
                f"{', '.join(adapter.param_keys) or 'none'}"
            )

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def resolved_rqs(self) -> Optional[RefinedQuorumSystem]:
        return resolve_rqs(self.rqs)

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced."""
        from dataclasses import replace

        if "params" in changes:
            changes["params"] = dict(changes["params"])
        return replace(self, **changes)
