"""E2 — Section 1.2: the 4-of-5 fast-quorum crash algorithm."""

from benchmarks.conftest import report
from repro.scenarios import (
    FaultPlan,
    Read,
    ScenarioSpec,
    Write,
    crashes,
    run,
)


def scenario():
    rows, atomic = [], True
    for name, value, crashed in (
        ("all up", "a", {}),
        ("t=2 crashed", "b", {4: 0.0, 5: 0.0}),
    ):
        result = run(ScenarioSpec(
            "fastabd", readers=2,
            faults=FaultPlan(crashes=crashes(crashed)),
            workload=(Write(0.0, value), Read(10.0)),
        ))
        write, read = result.write(), result.read()
        rows.append((name, write.rounds, read.rounds, read.result))
        atomic = atomic and result.atomicity.atomic
    return rows, atomic


def test_section12_fast_abd(benchmark):
    rows, atomic = benchmark.pedantic(
        scenario, rounds=3, iterations=1, warmup_rounds=1
    )
    report(
        "Section 1.2 fast-ABD (E2)",
        [f"{name}: write={w}r read={r}r -> {v!r}" for name, w, r, v in rows],
    )
    (_, w1, r1, v1), (_, w2, r2, v2) = rows
    assert (w1, r1, v1) == (1, 1, "a"), "best case must be single-round"
    assert (w2, v2) == (2, "b") and r2 <= 2, "degraded case caps at 2 rounds"
    assert atomic
