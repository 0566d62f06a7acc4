"""Experiment E5 — the storage latency table (Theorem 9).

The paper's headline claim for storage: synchronous, uncontended
operations complete in

======================  ==============  =============
available quorum class  write (rounds)  read (rounds)
======================  ==============  =============
1                       1               1
2                       2               2
3                       3               3
======================  ==============  =============

We measure writes by crashing servers *before* the write so that exactly
a class-1 / class-2 / class-3 quorum of correct servers remains.

Reads are measured after a **completed single-round write whose round-1
message missed one server** (the paper's ex2/ex3 situation in Figure 4 —
with a fully-replicated completed write our reads finish in one round
regardless, which is sound but uninformative), with servers crashed
after the write so the reader sees a class-1 / class-2 / class-3 quorum.

The default system is the Example 6 instance ``n=8, t=3, k=1, q=1, r=2``
(the scenario RQS name ``"example6"``).

The whole experiment is the sweep :data:`GRID` — an ``op`` ×
``quorum_class`` grid, each cell one scenario whose ``rounds`` metric
is the table entry (:data:`PAPER_CLAIM`).
"""

from __future__ import annotations

from typing import Mapping

from repro.scenarios import (
    Crash,
    FaultPlan,
    Hold,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    crashes,
)

DEFAULT_RQS = "example6"

#: servers to crash so the *best correct quorum* has the given class
#: (for the n=8, t=3, q=1, r=2 system: class1 needs ≥7 up, class2 ≥6,
#: class3 ≥5).
_WRITE_CRASHES = {1: 1, 2: 2, 3: 3}
#: For reads the writer already missed server 1 (which still answers
#: reads), so after crashing c more servers the responder set has 8-c
#: servers but only 7-c of them hold the value: crashing 2 (resp. 3)
#: makes the best *responding* quorum class 2 (resp. 3) while defeating
#: the class-1 fast path (fewer than n-2q=6 holders).
_READ_CRASHES = {1: 0, 2: 2, 3: 3}


def _write_spec(crash_count: int) -> ScenarioSpec:
    """Write latency setup: ``crash_count`` servers down from the start."""
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs=DEFAULT_RQS,
        readers=1,
        faults=FaultPlan(
            crashes=crashes({sid: 0.0 for sid in range(1, crash_count + 1)})
        ),
        # The write completes within 3 two-Δ rounds; read well after.
        workload=(Write(0.0, "value"), Read(10.0)),
    )


def _read_spec(crash_count: int) -> ScenarioSpec:
    """Read latency setup after an incomplete-but-completed 1-round write.

    The writer's round-1 message to server 1 is held, so the write
    completes via the class-1 quorum ``{2..8}``; then ``crash_count``
    servers (2, 3, ...) crash before the read.
    """
    return ScenarioSpec(
        protocol="rqs-storage",
        rqs=DEFAULT_RQS,
        readers=1,
        faults=FaultPlan(
            # The write finishes at 2Δ; crash just before the read starts.
            crashes=tuple(
                Crash(sid, 5.0) for sid in range(2, 2 + crash_count)
            ),
            asynchrony=(
                Hold(src=("writer",), dst=(1,), label="wr misses s1"),
            ),
        ),
        workload=(Write(0.0, "value"), Read(5.0)),
    )


def _build(point: Mapping) -> ScenarioSpec:
    cls = point["quorum_class"]
    if point["op"] == "write":
        return _write_spec(_WRITE_CRASHES[cls])
    return _read_spec(_READ_CRASHES[cls])


def _measure(point: Mapping, result) -> Mapping:
    write_record, read_record = result.write(), result.read()
    if point["op"] == "write":
        measured, rounds = write_record, write_record.rounds
    else:
        assert write_record.rounds == 1, "setup: the write must be 1-round"
        measured, rounds = read_record, read_record.rounds
    ok = result.atomicity.atomic and read_record.result == "value"
    return {
        "rounds": rounds,
        "time": measured.completed_at - measured.invoked_at,
        "verdict": "atomic" if ok else "violation",
    }


#: The E5 grid: measured operation × available quorum class.
GRID = SweepSpec(
    name="storage-latency",
    axes={"op": ("write", "read"), "quorum_class": (1, 2, 3)},
    build=_build,
    measure=_measure,
)

#: The paper's table: (write, read) rounds by available quorum class.
PAPER_CLAIM = {1: (1, 1), 2: (2, 2), 3: (3, 3)}
