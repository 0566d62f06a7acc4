"""The sweep-engine bench: a protocol × fault-plan × seed grid.

Regenerates ``BENCH_sweep.json`` through the aggregator
(:func:`repro.scenarios.write_bench_json`) so the perf trajectory of the
grid runner is recorded as a canonical, diffable artifact.  Under
pytest it also asserts the engine's core guarantee: the multiprocessing
backend aggregates byte-identically to the serial one.
``python -m benchmarks.bench_sweep`` just emits the JSON (CI's
``sweep-smoke`` job holds it to the committed file).
"""

from pathlib import Path

from repro.scenarios import (
    Crash,
    FaultPlan,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    labeled,
    run_grid,
    write_bench_json,
)

#: 2 protocols × 2 fault plans × 3 seeds — the acceptance-shaped grid.
GRID = SweepSpec(
    name="sweep",
    axes={
        "protocol": ("abd", "fastabd"),
        "faults": (
            labeled("none", FaultPlan()),
            labeled("one-crash", FaultPlan(crashes=(Crash(1, 0.0),))),
        ),
        "seed": (0, 1, 2),
    },
    base=ScenarioSpec(
        protocol="abd",
        readers=1,
        workload=(Write(0.0, "v"), Read(5.0)),
    ),
)


def emit(directory=None) -> Path:
    """Run the grid and write ``BENCH_sweep.json`` via the aggregator."""
    result = run_grid(GRID)
    assert result.verdict_counts() == {"atomic": 12}
    return write_bench_json(
        result, directory or Path(__file__).resolve().parent.parent
    )


def test_sweep_grid(tmp_path):
    serial = run_grid(GRID)
    parallel = run_grid(GRID, executor="multiprocessing", processes=2)
    assert serial.to_json() == parallel.to_json()
    assert emit(tmp_path).read_text() == serial.to_json()


if __name__ == "__main__":
    print(f"wrote {emit()}")
