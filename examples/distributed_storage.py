#!/usr/bin/env python3
"""Distributed storage scenario: a replicated commodity-disk array.

Models the paper's motivating application (FAB-style distributed storage
built from fault-prone commodity servers): one writer streams versioned
records while several readers poll, servers crash and one misbehaves —
the array must stay atomic and fast.

The whole deployment — disks, fault schedule, workload — is one
declarative :class:`~repro.scenarios.ScenarioSpec`.

Demonstrates:
  * single-round reads/writes while the array is healthy,
  * graceful degradation as servers fail,
  * a fabricating Byzantine server being ignored,
  * the atomicity checker validating the full history.

Run:  python examples/distributed_storage.py
"""

from functools import partial

from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    RandomMix,
    Read,
    ScenarioSpec,
    Write,
    run,
)
from repro.storage.server import FabricatingServer


def main() -> None:
    # An 8-disk array tolerating 3 unresponsive disks, one of which may
    # be arbitrarily faulty (firmware bug, bit rot, compromise).
    spec = ScenarioSpec(
        protocol="rqs-storage",
        rqs="example6",
        readers=3,
        faults=FaultPlan(
            # disks 1 and 2 die mid-run.
            crashes=(Crash(1, 30.0), Crash(2, 55.0)),
            # disk 8 lies about its contents: it advertises a bogus
            # record with an absurdly high version number on every read.
            byzantine=(
                ByzantineRole(8, partial(
                    FabricatingServer, forged_ts=10_000,
                    forged_value="CORRUPT",
                )),
            ),
        ),
        workload=(
            Write(0.0, ("block-0", "genesis")),
            Read(5.0, reader=0),
            # 6 more versions streamed while disks fail at t=30 and t=55,
            # with 12 polling reads spread over the readers.
            RandomMix(writes=6, reads=12, horizon=72.0, start=8.0),
            # one final read after everything settled.
            Read(100.0, reader=1),
        ),
        seed=42,
    )
    result = run(spec)

    print("Healthy array:")
    record, read = result.write(0), result.read(0)
    print(f"  write -> {record.rounds} round(s)")
    print(f"  read  -> {read.result!r} in {read.rounds} round(s)")

    print("\nStreaming 6 more versions while disks fail at t=30 and t=55:")
    writes = result.latency("write")
    reads = result.latency("read")
    print(f"  {writes.row()}")
    print(f"  {reads.row()}")

    report = result.atomicity
    print(f"\nAtomicity check over {len(result.records)} operations: "
          f"{'PASS' if report.atomic else 'FAIL'}")
    for violation in report.violations:
        print(f"  {violation}")
    assert report.atomic

    final = max(
        (r for r in result.reads if r.complete),
        key=lambda r: r.completed_at,
    )
    print(f"Final read: {final.result!r} "
          f"(the fabricated 'CORRUPT' record never surfaced)")
    assert final.result != "CORRUPT"
    assert all(r.result != "CORRUPT" for r in result.reads if r.complete)


if __name__ == "__main__":
    main()
