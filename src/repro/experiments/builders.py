"""Shared spec builders for keyed-workload studies.

``benchmarks/bench_workload.py``, ``perf/workloads.py`` and the
contention and batched-tail grids all build the same shape of
scenario — a seeded :class:`~repro.scenarios.RandomMix` over ``n_keys``
registers on one of the storage protocols.  :func:`keyed_mix_spec`
holds the spec assembly once: protocol wiring
(the RQS instance for ``rqs-storage``, parameter-free baselines
otherwise), the uniform/zipfian keyspace choice, and the optional
open-loop stopping rule for horizon-free soaks.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.scenarios import RandomMix, ScenarioSpec

#: The RQS instance keyed-workload studies run the paper's protocol on.
DEFAULT_RQS = "example6"


def keyed_mix_spec(
    protocol: str,
    n_keys: int,
    writes: int,
    reads: int,
    readers: int,
    horizon: Optional[float] = None,
    n_writers: int = 1,
    skew: Optional[float] = None,
    seed: int = 0,
    trace_level: str = "full",
    duration: Optional[float] = None,
    max_ops: Optional[int] = None,
    rqs: str = DEFAULT_RQS,
    params: Optional[Mapping[str, Any]] = None,
    batch_size: int = 1,
) -> ScenarioSpec:
    """One keyed-``RandomMix`` scenario on a storage protocol.

    ``skew=None`` draws keys uniformly; a float switches to the zipfian
    distribution with that skew.  ``horizon=None`` spreads the ops over
    ``float(writes + reads)`` time units (one op per unit on average —
    the workload-bench convention).  ``duration``/``max_ops`` pass
    through as the open-loop stopping rule, making the cell a
    horizon-free streaming soak.  ``params`` carries protocol knobs
    (e.g. ``{"bounded_history": True}`` for rqs-storage soaks).
    ``batch_size > 1`` turns on cross-key operation batching (clients
    coalesce up to that many ops per round-trip).
    """
    mix = RandomMix(
        writes,
        reads,
        horizon=float(writes + reads) if horizon is None else horizon,
        distribution="uniform" if skew is None else "zipfian",
        skew=1.0 if skew is None else skew,
        batch_size=batch_size,
    )
    return ScenarioSpec(
        protocol=protocol,
        rqs=rqs if protocol.startswith("rqs-") else None,
        readers=readers,
        n_writers=n_writers,
        n_keys=n_keys,
        workload=(mix,),
        seed=seed,
        trace_level=trace_level,
        duration=duration,
        max_ops=max_ops,
        params=dict(params) if params else {},
    )
