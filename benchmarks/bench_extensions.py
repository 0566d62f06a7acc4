"""E14 — Section 5/6 extensions: regular semantics + asymmetric quorums.

Not a paper table; an ablation of the directions the paper's concluding
section names.  Shapes asserted:

* regular reads are single-round even on class-3 quorums (the whole
  price of atomicity is the write-back);
* asymmetric write/read sizing walks the AP1 boundary
  (write + read = n + k + 1), trading write load against read
  availability monotonically.
"""

from benchmarks.conftest import report
from repro.analysis.regularity import check_swmr_regularity
from repro.core.asymmetric import threshold_asymmetric, write_read_tradeoff
from repro.scenarios import (
    Crash,
    FaultPlan,
    Read,
    ScenarioSpec,
    Write,
    run,
)


def regular_vs_atomic():
    rows = []
    for crashes in (0, 2, 3):
        atomic, regular = (
            run(ScenarioSpec(
                protocol, rqs="example6", readers=1,
                faults=FaultPlan(crashes=[
                    Crash(sid, 0.0) for sid in range(1, crashes + 1)
                ]),
                workload=(Write(0.0, "v"), Read(10.0)),
            ))
            for protocol in ("rqs-storage", "rqs-regular")
        )
        ok = check_swmr_regularity(regular.records).regular
        rows.append(
            (crashes, atomic.read().rounds, regular.read().rounds, ok)
        )
    return rows


def test_regular_semantics_ablation(benchmark):
    rows = benchmark.pedantic(regular_vs_atomic, rounds=2, iterations=1)
    report(
        "Extensions (E14a): regular vs atomic read rounds",
        [
            f"{crashes} crashed: atomic={a}r regular={r}r "
            f"({'regular' if ok else 'VIOLATION'})"
            for crashes, a, r, ok in rows
        ],
    )
    for _, _, regular_rounds, ok in rows:
        assert regular_rounds == 1 and ok


def test_asymmetric_tradeoff(benchmark):
    rows = benchmark(lambda: write_read_tradeoff(8, 1, [0.1]))
    report(
        "Extensions (E14b): asymmetric write/read trade-off (n=8, k=1, p=0.1)",
        [
            f"write={w} read={r}: write-load={load:.3f} "
            f"read-avail={avail:.3f}"
            for w, r, load, avail in rows
        ],
    )
    loads = [load for _, _, load, _ in rows]
    avails = [avail for _, _, _, avail in rows]
    assert loads == sorted(loads) and avails == sorted(avails)
    system = threshold_asymmetric(8, 1, write_size=5, read_size=5)
    assert system.is_valid()
