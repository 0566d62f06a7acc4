"""The unified scenario layer — the public way to run any execution.

One declarative :class:`ScenarioSpec` describes protocol, quorum system,
clients, fault plan, workload and seed (time is counted in Δ, the
network's synchrony bound, so no spec field sets it); :func:`run`
executes it and returns a :class:`RunResult` with the trace, latency
metrics and lazy correctness verdicts.  Every protocol in the repository
is registered here:

``rqs-storage`` · ``rqs-regular`` · ``abd`` · ``fastabd`` · ``naive`` ·
``rqs-consensus`` · ``paxos`` · ``pbft``

Quickstart::

    from repro.scenarios import ScenarioSpec, Write, Read, run

    result = run(ScenarioSpec(
        protocol="rqs-storage",
        rqs="example6",                  # threshold_rqs(8, 3, 1, 1, 2)
        readers=1,
        workload=(Write(0.0, "hello"), Read(5.0)),
    ))
    assert result.read().result == "hello"
    assert result.atomicity.atomic

Invariant: all executions go through this layer — experiment drivers,
examples, benchmarks and tests build a spec instead of wiring
Simulator/Network by hand.  The protocol adapter *is* the deployment
(:mod:`repro.scenarios.adapters` is the one module that creates a
simulator); a run's processes are ``result.adapter.servers`` /
``.writers`` / ``.readers`` (storage) and ``.proposers`` /
``.acceptors`` / ``.learners`` (consensus).

Each built-in id's registry row lives in its family's module
(:mod:`~repro.scenarios.abd_adapters`,
:mod:`~repro.scenarios.rqs_adapters`,
:mod:`~repro.scenarios.consensus_adapters`), which the registry imports
on the first lookup of one of its ids — and a :class:`ScenarioSpec`
looks its protocol up when it is built.  Importing this package
therefore registers nothing and loads no protocol: the spec literal
does, in a soak's or an exhibit's set-up rather than inside a timed
``run``, and an ``abd`` run never compiles the RQS stack or the
consensus half.

Grids of scenarios are sweeps: a :class:`SweepSpec` (axes of protocols ×
RQS constructions × fault plans × seeds) expands into frozen specs and
:func:`run_grid` executes them on a serial or multiprocessing backend,
aggregating into a portable :class:`SweepResult` table — see
:mod:`repro.scenarios.sweeps`.  Second invariant: **new figure = new
grid literal**.

Storage runs address a **keyed register space**: ``Write``/``Read``
carry a ``key`` (default: the single historical register) and a writer
index, ``RandomMix`` draws keys ``uniform``/``zipfian`` over
``ScenarioSpec.n_keys``, and ``n_writers > 1`` deploys concurrent
writers with totally-ordered timestamps.  Verdicts partition per key:
``RunResult.atomicity`` is the aggregate, ``RunResult.key_verdicts``
the per-register view.

Long runs **stream**: at ``TraceLevel.METRICS`` operation records are
never retained — counters, online latency accumulators and (for
``RandomMix`` workloads) the windowed online checker take over
(``RunResult.online``), and the open-loop stopping rule
(``ScenarioSpec.duration``/``max_ops``) generates ops lazily per
client for horizon-free million-op soaks in O(clients + keys) memory.

The biggest soaks **shard**: ``ScenarioSpec.shards > 1`` partitions a
keyed open-loop soak (``duration`` or ``max_ops``) across worker
processes by the deterministic load-weighted :func:`shard_assignment`
rule (crc32 for uniform mixes, a greedy LPT bin-pack over the zipfian
draw weights for skewed ones — independent single-writer registers
need no coordination) and returns the shards' outcomes as one
:class:`ShardedRunResult`, which answers every streaming question as a
:class:`RunResult` (a fleet of one) does — see
:mod:`repro.scenarios.sharding`.

Quorum systems can be **expression-defined**: a planning-level
:class:`~repro.core.algebra.QuorumSystem` (``a*b + c*d`` over
capacitated :class:`~repro.core.algebra.Node` leaves) reaches a spec
through a registered lift (``rqs="grid-hetero"`` / ``"grid-homog"``,
the 2×3 grid ``a*b*c + d*e*f``) — a spec refuses the expression
itself — and the ``quorum_strategy`` knob (``"uniform"`` or
``"optimal"``) makes storage clients draw each operation's quorum from
a seeded distribution instead of broadcasting — see
:mod:`repro.core.algebra` and :mod:`repro.core.strategy`.
"""

from repro.scenarios.aggregate import (
    AxisValue,
    CellResult,
    SweepResult,
    jsonable,
    labeled,
    percentile,
    summary_stats,
    write_bench_json,
)
from repro.scenarios.faults import (
    ACCEPTOR,
    PROPOSER,
    SERVER,
    ByzantineRole,
    Crash,
    Delay,
    Drop,
    FaultPlan,
    Hold,
    Partition,
    PayloadIs,
    crashes,
    lossy_until_gst,
    payload_is,
)
from repro.scenarios.registry import (
    available_protocols,
    get_protocol,
    register_protocol,
)
from repro.scenarios.result import RunResult
from repro.scenarios.runner import run
from repro.scenarios.sharding import ShardedRunResult, run_sharded
from repro.scenarios.spec import (
    ScenarioSpec,
    named_rqs,
    register_rqs,
    resolve_rqs,
)
from repro.scenarios.sweeps import (
    SweepSpec,
    default_measure,
    run_grid,
)
from repro.scenarios.workloads import (
    Propose,
    RandomMix,
    Read,
    Resync,
    Write,
    key_shard,
    shard_assignment,
)
from repro.sim.network import TraceLevel
from repro.storage.history import DEFAULT_KEY

__all__ = [
    "ACCEPTOR",
    "AxisValue",
    "CellResult",
    "PROPOSER",
    "SERVER",
    "ByzantineRole",
    "Crash",
    "DEFAULT_KEY",
    "Delay",
    "Drop",
    "FaultPlan",
    "Hold",
    "Partition",
    "PayloadIs",
    "Propose",
    "RandomMix",
    "Read",
    "Resync",
    "RunResult",
    "ScenarioSpec",
    "ShardedRunResult",
    "SweepResult",
    "SweepSpec",
    "TraceLevel",
    "Write",
    "available_protocols",
    "crashes",
    "default_measure",
    "get_protocol",
    "jsonable",
    "key_shard",
    "labeled",
    "lossy_until_gst",
    "named_rqs",
    "payload_is",
    "percentile",
    "register_protocol",
    "register_rqs",
    "resolve_rqs",
    "run",
    "run_grid",
    "run_sharded",
    "shard_assignment",
    "summary_stats",
    "write_bench_json",
]
