"""The declarative scenario specification.

A :class:`ScenarioSpec` is a frozen literal describing one complete
execution: which protocol runs, over which refined quorum system (an
:class:`~repro.core.rqs.RefinedQuorumSystem` instance or a registered
name), how many clients participate, the synchrony bound Δ, the fault
plan, the workload, the seed, and how long to run.  ``run(spec)`` in
:mod:`repro.scenarios.runner` is the only step between a spec and a
checked :class:`~repro.scenarios.result.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import import_module
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple, Union,
)

from repro.errors import ScenarioError, SimulationError
from repro.scenarios.faults import FaultPlan
from repro.scenarios.registry import get_protocol
from repro.scenarios.workloads import RandomMix, Workload, WorkloadOp
from repro.sim.network import TraceLevel

if TYPE_CHECKING:
    from repro.core.algebra import QuorumSystem
    from repro.core.rqs import RefinedQuorumSystem
    from repro.core.strategy import Strategy

RqsSpec = Union["RefinedQuorumSystem", "QuorumSystem", str, None]

#: Legal string values of ``ScenarioSpec.quorum_strategy``.
STRATEGY_NAMES = ("uniform", "optimal")

# -- named quorum-system constructions ----------------------------------------

_NAMED_RQS: Dict[str, Callable[[], RefinedQuorumSystem]] = {}
#: The system each registered name resolved to, built (and validated)
#: once per process and never evicted: the registry bounds it.
#: Construction strings such as ``"threshold:8,3,1,1,2"`` are kept by
#: :func:`_construct`, a bounded cache instead.
_BUILT_RQS: Dict[str, RefinedQuorumSystem] = {}

#: The construction-string kinds :func:`_construct` builds.
_CONSTRUCTIONS = ("threshold", "majority", "byzantine", "pbft")


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
# Expression-defined systems (the quorum algebra lift): the 2×3 grid
# ``a*b*c + d*e*f`` with heterogeneous / homogeneous node capacities.
register_rqs("grid-hetero", _deferred("repro.core.algebra", "demo_grid_rqs",
                                      heterogeneous=True))
register_rqs("grid-homog", _deferred("repro.core.algebra", "demo_grid_rqs",
                                     heterogeneous=False))


def resolve_rqs(spec: RqsSpec) -> Optional[RefinedQuorumSystem]:
    """Resolve a spec's ``rqs`` field to a concrete system.

    Accepts an instance, a planning-level
    :class:`~repro.core.algebra.QuorumSystem` (lifted via its
    :meth:`~repro.core.algebra.QuorumSystem.to_rqs`), ``None`` (for
    protocols that do not take an RQS), a registered name or a
    parameterized construction string:

    * ``"threshold:n,t,k,q,r"`` — Example 6 (append ``,novalidate`` to
      skip the property check, for lower-bound scenarios),
    * ``"majority:n"`` — Example 2,
    * ``"byzantine:n"`` — Example 3,
    * ``"pbft:t"`` — the ``n = 3t + 1`` instantiation.

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
        from repro.core.algebra import QuorumSystem

        if isinstance(spec, QuorumSystem):
            return spec.to_rqs()
        raise ScenarioError(
            f"rqs must be a RefinedQuorumSystem, a name, or None; "
            f"got {spec!r}"
        )
    if spec in _NAMED_RQS:
        rqs = _BUILT_RQS.get(spec)
        if rqs is None:
            rqs = _BUILT_RQS[spec] = _NAMED_RQS[spec]()
        return rqs
    kind, colon, _ = spec.partition(":")
    if colon and kind in _CONSTRUCTIONS:
        return _construct(spec)
    raise ScenarioError(
        f"unknown RQS name {spec!r}; known names: {', '.join(named_rqs())} "
        f"or threshold:n,t,k,q,r / majority:n / byzantine:n / pbft:t"
    )


@lru_cache(maxsize=8)
def _construct(spec: str) -> RefinedQuorumSystem:
    """Parse and build a construction string (its kind is one of
    :data:`_CONSTRUCTIONS`) — validated, unless it says
    ``novalidate``, once per string while it stays cached.  A string
    that fails to parse or to validate raises, and nothing is kept."""
    from repro.core.constructions import (
        byzantine_quorum_system,
        majority_quorum_system,
        pbft_style_rqs,
        threshold_rqs,
    )

    kind, _, arg_text = spec.partition(":")
    args = [a.strip() for a in arg_text.split(",") if a.strip()]
    try:
        if kind == "threshold":
            validate = True
            if args and args[-1] == "novalidate":
                validate = False
                args = args[:-1]
            n, t, k, q, r = (int(a) for a in args)
            return threshold_rqs(n, t, k, q, r, validate=validate)
        (size,) = (int(a) for a in args)
        if kind == "majority":
            return majority_quorum_system(size)
        if kind == "byzantine":
            return byzantine_quorum_system(size)
        return pbft_style_rqs(size)
    except ValueError as exc:
        raise ScenarioError(f"bad RQS construction {spec!r}: {exc}")


# -- the spec itself -----------------------------------------------------------

@dataclass(frozen=True)
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
        The refined quorum system (instance or name); ``None`` for
        baselines parameterized by counts instead (ABD, Paxos, PBFT).
        A name or construction string is resolved (:func:`resolve_rqs`)
        when the spec is built, so the system is built in set-up and an
        unknown name raises :class:`~repro.errors.ScenarioError` there.
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
    delta:
        The synchrony bound Δ (default network latency).
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
        (``"full"``/``"metrics"``).  ``FULL`` (default) keeps every
        operation record (the post-hoc verdicts and ``fingerprint()``
        read them) and the message log (``Network.log``, read only by
        tests); ``METRICS`` keeps counters, latency accumulators and the
        online verdict only, bounding memory on big sweeps/benchmarks
        (the log is then empty).  Held messages stay releasable at both
        levels.
    quorum_strategy:
        How storage clients pick the quorum each operation contacts.
        ``None`` (default) is the paper's model — broadcast to the
        ground set and return on the first responding quorum; it is
        bit-identical to all pre-strategy executions.  ``"uniform"``
        draws uniformly over the RQS's quorums; ``"optimal"`` draws
        from the load-optimal LP distribution of
        :func:`repro.core.strategy.optimal_strategy` (the read fraction
        is taken from the workload's mix, and per-node capacities from
        the RQS when it carries them); a
        :class:`~repro.core.strategy.Strategy` instance is used as
        given.  Strategy draws consume a dedicated per-client RNG
        stream, never the workload RNGs.  Only the ``rqs-storage``
        protocol supports the knob.  A spec that sets it imports the
        solver, :mod:`repro.core.strategy`, when it is built.
    params:
        Protocol-specific extras (e.g. ``n``/``t`` for ABD-family
        baselines, ``f`` for PBFT, ``sync_delay`` or ``proposer_values``
        for the RQS consensus).
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
        ``TraceLevel.METRICS``, and ``n_keys >= shards``.  Such a spec
        imports the process-pool stack (``concurrent.futures.process``)
        when it is built; no other spec loads it.
    """

    protocol: str
    rqs: RqsSpec = None
    readers: int = 2
    proposers: int = 2
    learners: int = 3
    n_writers: int = 1
    n_keys: int = 1
    delta: float = 1.0
    faults: FaultPlan = field(default_factory=FaultPlan)
    workload: Workload = ()
    seed: int = 0
    horizon: Optional[float] = None
    duration: Optional[float] = None
    max_ops: Optional[int] = None
    trace_level: Union[TraceLevel, str] = TraceLevel.FULL
    quorum_strategy: Union[None, str, "Strategy"] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    shards: int = 1

    def __post_init__(self):
        # Resolving the id imports its family's module here, where the
        # spec literal is built, never inside a timed ``run``; so does
        # resolving an RQS name (an unknown one raises here), and so
        # do the strategy solver and a sharded run's pool stack below.
        get_protocol(self.protocol)
        if isinstance(self.rqs, str):
            resolve_rqs(self.rqs)
        object.__setattr__(self, "workload", tuple(self.workload))
        if self.quorum_strategy is not None:
            from repro.core.strategy import Strategy

            if self.quorum_strategy not in STRATEGY_NAMES and not isinstance(
                self.quorum_strategy, Strategy
            ):
                raise ScenarioError(
                    f"quorum_strategy must be None, one of "
                    f"{'/'.join(STRATEGY_NAMES)}, or a Strategy instance; "
                    f"got {self.quorum_strategy!r}"
                )
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
            if self.max_ops is not None and self.max_ops < self.shards:
                raise ScenarioError(
                    f"max_ops={self.max_ops} cannot be split over "
                    f"{self.shards} shards (each shard needs an op budget "
                    f">= 1)"
                )
            import concurrent.futures.process  # noqa: F401
        object.__setattr__(
            self, "params", MappingProxyType(dict(self.params))
        )

    # ``params`` is a mappingproxy (immutable view), which pickle cannot
    # serialize; swap it for a plain dict in transit so specs can cross
    # process boundaries (the sweeps multiprocessing backend).
    def __getstate__(self):
        state = dict(self.__dict__)
        state["params"] = dict(state["params"])
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "params", MappingProxyType(dict(state["params"]))
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
