"""E2 — Section 1.2: the 4-of-5 fast-quorum crash algorithm."""

from benchmarks.conftest import report
from repro.analysis.atomicity import check_swmr_atomicity
from repro.storage.abd import FASTABD, RegisterSystem


def scenario():
    rows = []
    system = RegisterSystem(FASTABD, n_readers=2)
    write = system.write("a")
    read = system.read()
    rows.append(("all up", write.rounds, read.rounds, read.result))
    degraded = RegisterSystem(
        FASTABD, n_readers=2, crash_times={4: 0.0, 5: 0.0}
    )
    write2 = degraded.write("b")
    read2 = degraded.read()
    rows.append(("t=2 crashed", write2.rounds, read2.rounds, read2.result))
    atomic = (
        check_swmr_atomicity(system.trace.records).atomic
        and check_swmr_atomicity(degraded.trace.records).atomic
    )
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
