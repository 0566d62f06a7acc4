"""``run(spec)`` — the single entry point for executing a scenario.

The runner resolves the protocol adapter, wires the system, applies the
fault plan (crashes are scheduled before workload operations so that a
crash and an operation at the same instant resolve crash-first), then
schedules the workload and runs to the spec's horizon (or completion).

Streaming runs (``TraceLevel.METRICS``, where operation records are not
retained) additionally get the **windowed online checker** subscribed to
the trace before execution: ``RandomMix`` storage workloads are
safety-checked as operations complete, a wave (the records one client
completes at one instant) a call — one stamp-ordered checker for
single- and multi-writer specs alike, its report labelled ``"sw"`` /
``"mw"`` from ``spec.n_writers`` — so horizon-free soaks produce a real
verdict without ever materializing the history; read it via
``RunResult.online``.  Where no checker applies, a structured
:class:`~repro.analysis.streaming.OnlineRefusal` lands on
``RunResult.online_refusal`` instead of a bare ``None``.  Record-keeping
runs (``RECORDS`` / ``FULL``) are judged by the same checker, replayed
over the retained records when ``RunResult.atomicity`` is first read —
and refused for the same reasons.

The execute phase (the event loop proper, excluding wiring and RQS
construction) is wall-timed onto ``RunResult.execute_seconds`` so perf
benches measure scheduler throughput without re-implementing the
pipeline.
"""

from __future__ import annotations

import time

from repro.analysis.streaming import OnlineChecker, OnlineRefusal
from repro.scenarios.registry import get_protocol
from repro.scenarios.result import RunResult
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import RandomMix


def _wire_online_checker(adapter, spec) -> None:
    """Subscribe the windowed checker to streaming storage runs.

    Engaged only where its invariants are sound: records are being
    streamed (not retained), the adapter does not refuse the register
    checker (:meth:`~repro.scenarios.adapters.ProtocolAdapter.register_refusal`:
    consensus rows, unsound multi-writer stamps), and the workload is a
    *single* ``RandomMix`` (sequential integer write values, unique per
    run; two mixes would reuse them).  The report's ``mode`` says how
    many writers the spec deployed (``"sw"`` one, ``"mw"`` several) and
    its ``claim`` is the adapter's.  Streamed runs outside this envelope
    get a structured :class:`OnlineRefusal` on the adapter so
    ``RunResult`` can explain the missing verdict.
    """
    if adapter.trace.retain:
        # RECORDS / FULL keep records: RunResult.atomicity replays them.
        return
    refusal = adapter.register_refusal(spec)
    if refusal is None and (
        len(spec.workload) != 1 or not isinstance(spec.workload[0], RandomMix)
    ):
        refusal = OnlineRefusal(
            "workload-shape",
            "the online checker requires a single RandomMix workload: "
            "scripted operations and multi-mix specs interleave value "
            "ranges the windowed rules cannot order",
        )
    if refusal is not None:
        adapter.online_refusal = refusal
        return
    checker = OnlineChecker(
        mode="sw" if spec.n_writers == 1 else "mw", claim=adapter.claim
    )
    adapter.trace.subscribe(
        on_begin=checker.on_begin, on_complete=checker.on_complete
    )
    adapter.online_checker = checker


def run(spec: ScenarioSpec):
    """Execute one scenario and return its bundled result.

    Specs with ``shards > 1`` dispatch to the sharded executor
    (:func:`repro.scenarios.sharding.run_sharded`), which partitions the
    keyed draw across worker processes and returns the merged
    :class:`~repro.scenarios.sharding.ShardedRunResult`; everything else
    runs in-process and returns a plain :class:`RunResult`.
    """
    if spec.shards > 1:
        from repro.scenarios.sharding import run_sharded

        return run_sharded(spec)
    adapter_cls = get_protocol(spec.protocol)
    adapter = adapter_cls.build(spec)
    _wire_online_checker(adapter, spec)
    adapter.apply_faults(spec)
    adapter.schedule(spec)
    start = time.perf_counter()
    cpu_start = time.process_time()
    adapter.execute(spec)
    elapsed = time.perf_counter() - start
    cpu_elapsed = time.process_time() - cpu_start
    result = RunResult(spec, adapter)
    result.execute_seconds = elapsed
    result.execute_cpu_seconds = cpu_elapsed
    return result
