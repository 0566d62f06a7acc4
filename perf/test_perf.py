"""Tests of the benchmark itself — run explicitly:

    python -m pytest perf -q

(the tier-1 ``testpaths`` does not include this directory).  Everything
runs at a 0.02 smoke scale — ``paper-exhibits``, a fixed list of grids,
at its one size — through the same command line the driver uses.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare, metrics, run
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
UNITS = {m.name: m.unit for m in metrics.END_TO_END}


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perf" / "run.py"), "--scale", "0.02",
         *args],
        capture_output=True, text=True, timeout=170,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    """One pass of the whole suite (two rounds, to keep it short): the
    result file ``perf/compare.py`` reads."""
    out = tmp_path_factory.mktemp("suite") / "results.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "ROUNDS", 2)
        code = run.main(["--scale", "0.02", "--seed", "5",
                         "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_manifest_is_current_and_within_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()
    assert set(committed) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert committed["paths"] == ["perf"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["end_to_end"]) <= 16
    assert len(committed["per_layer"]) == 88
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in committed[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for row in committed["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("higher", "lower")
    bounds = {row["name"]: row["bound"] for row in committed["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    for name, row in result["metrics"].items():
        assert row["unit"] == UNITS[name]
        assert row["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_ledger_sums_to_one_and_repeats_exactly(workload, suite):
    """The second invocation to compare with is the suite's traced pass
    (same seed and scale)."""
    first = result_of(bench("--workload", workload, "--seed", "5",
                            "--seconds", "1", "--trace", "1"))
    second = suite["workloads"][workload]["per_layer"]
    ledger = first["metrics"]
    assert list(ledger) == [name for name, _, _ in metrics.PER_LAYER]
    shares = [ledger[f"{layer}.self_share"]["value"]
              for layer in metrics.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    for layer in metrics.LAYERS:
        name = f"{layer}.calls_per_unit"
        assert ledger[name] == second[name]
    for name in ("sim.network.msgs_per_unit",
                 "analysis.streaming.max_retained",
                 "scenarios.workloads.draw_useful_share"):
        assert ledger[name] == second[name]
    # Measured, not assumed: each of the two shards draws every op.
    assert ledger["scenarios.workloads.draw_useful_share"]["value"] == (
        0.5 if workload == "sharded-zipf" else 1.0
    )
    trace = json.loads(
        (ROOT / "perf" / "out" / f"trace-{workload}.json").read_text()
    )
    spans = {span["name"]: span for span in trace["spans"]["traced"]}
    assert {"process", "import", "spec_build", "calibration", "pass",
            "verdict"} <= set(spans)
    assert spans["pass"]["parent"] == spans["process"]["id"]
    assert spans["verdict"]["parent"] == spans["pass"]["id"]
    # Inside the pass: one `run` with the program's own execute phase
    # as its child, or one span a grid.
    if workload == "paper-exhibits":
        assert spans["grid:fig1"]["parent"] == spans["pass"]["id"]
    else:
        assert spans["run"]["parent"] == spans["pass"]["id"]
        assert spans["execute"]["parent"] == spans["run"]["id"]


def test_sim_metrics_repeat_exactly_across_invocations(suite):
    first = result_of(bench("--workload", "rqs-degraded-writes", "--seed",
                            "5", "--seconds", "1", "--trace", "0"))
    second = suite["workloads"]["rqs-degraded-writes"]["end_to_end"]
    for name in metrics.EXACT:
        assert first["metrics"][name]["value"] == second[name]["value"]


def test_suite_result_file_feeds_compare(suite):
    """Every workload passes its gate (the 13 exhibit pins hold), the
    rounds agree exactly, and a result file compared with itself has
    no ``worse`` row."""
    assert suite["claim"] is None
    assert list(suite["workloads"]) == list(WORKLOADS)
    for workload, entry in suite["workloads"].items():
        assert entry["correct"] is True, (workload, entry["problems"])
        assert entry["failed"] == 0
        assert entry["end_to_end"]["throughput_per_s"]["n"] == 2
        assert entry["end_to_end"]["sim_rounds_per_op"]["n"] == (
            2 * WORKLOADS[workload].passes
        )
        assert entry["end_to_end"]["failed_share"]["value"] == 0
    rows = compare.compare(suite, suite)
    assert len(rows) == len(WORKLOADS) * (len(metrics.END_TO_END) + 2)
    assert not [text for text, outcome in rows if outcome == "worse"]
    assert all("changed in: none" in text
               for text, outcome in rows if outcome == "")


def test_a_wrong_exhibit_pin_fails_the_run(tmp_path):
    """A gate never seen to fail proves little: flip one pin in a copy
    of the benchmark and the same command must exit non-zero."""
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    workloads = tmp_path / "perf" / "workloads.py"
    text = workloads.read_text()
    right = '"fig1": {"atomic": 1, "violation": 1}'
    assert right in text
    workloads.write_text(text.replace(right, '"fig1": {"atomic": 2}'))
    process = bench("--workload", "paper-exhibits", "--seed", "5",
                    "--seconds", "1", "--trace", "0", root=tmp_path)
    assert process.returncode != 0
    assert "FAILED paper-exhibits: fig1" in process.stdout
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_host_times_are_in_reference_seconds_and_nothing_else_is():
    """A host twice as slow — every wall time and every calibration
    doubled — reports the same metrics."""
    facts = {"units": 1000, "attempted": 1000, "failed": 0, "problems": [],
             "events": 16_000, "messages": 15_000, "rounds_per_op": 1.5,
             "latency_p99": 4.0, "wiring_s": 0.1}
    quiet = {
        "passes": [dict(facts, segments=[[2.0, 0.1, 0.1]]),
                   # Two segments, the host slower around the second.
                   dict(facts, segments=[[1.0, 0.1, 0.1], [2.0, 0.2, 0.2]])],
        "setup_segment": [0.3, 0.1, 0.1], "peak_rss_mb": 30.0,
    }
    slow = {
        "passes": [dict(facts, wiring_s=0.2, segments=[[4.0, 0.2, 0.2]]),
                   dict(facts, wiring_s=0.2,
                        segments=[[2.0, 0.2, 0.2], [4.0, 0.4, 0.4]])],
        "setup_segment": [0.6, 0.25, 0.15], "peak_rss_mb": 30.0,
    }
    for worker in (quiet, slow):
        summary = run.summarise("abd-soak", [worker])
        assert summary["correct"] and summary["failed"] == 0
        assert {name: row["value"]
                for name, row in summary["end_to_end"].items()
                } == pytest.approx({
            "throughput_per_s": 500.0, "setup_s": 0.4, "peak_rss_mb": 30.0,
            "sim_events_per_unit": 16.0, "sim_rounds_per_op": 1.5,
            "sim_latency_p99": 4.0, "failed_share": 0.0,
        })
        assert summary["end_to_end"]["throughput_per_s"]["n"] == 1
        assert summary["end_to_end"]["sim_rounds_per_op"]["n"] == 2
    # The wall clock is kept beside the metrics, uncorrected.
    assert run.summarise("abd-soak", [slow])["host_speed"] == (
        pytest.approx([0.5, 1 / 3])
    )


def test_passes_that_disagree_fail_the_run():
    facts = {"units": 1000, "attempted": 1000, "failed": 0, "problems": [],
             "events": 16_000, "messages": 15_000, "rounds_per_op": 1.5,
             "latency_p99": 4.0, "wiring_s": 0.0,
             "segments": [[2.0, 0.1, 0.1]]}
    worker = {"passes": [facts, dict(facts, events=16_001)],
              "setup_segment": [0.4, 0.1, 0.1], "peak_rss_mb": 30.0}
    summary = run.summarise("abd-soak", [worker])
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == 2000
    assert any("events differs" in p for p in summary["problems"])


def _row(value, low=None, high=None):
    return {"value": value, "min": low or value, "max": high or value}


def test_compare_verdicts():
    throughput, setup = metrics.END_TO_END[0], metrics.END_TO_END[1]
    exact = next(m for m in metrics.END_TO_END if m.name in metrics.EXACT)
    lost = 100 * throughput.bound
    assert compare.verdict(throughput, _row(100), _row(101 - lost)) == "ok"
    assert compare.verdict(throughput, _row(100), _row(99 - lost)) == "worse"
    # The values agree, but A's runs spread wider than the bound and
    # the two sides overlap.
    assert compare.verdict(
        throughput, _row(100, 95 - lost, 105), _row(99, 98, 101)
    ) == "unresolved"
    # ... unless every run of B beats every run of A.
    assert compare.verdict(
        throughput, _row(100, 95 - lost, 105), _row(130, 120, 140)
    ) == "ok"
    # setup_s: relative bound, but never less than 0.10 s absolute.
    assert compare.verdict(setup, _row(0.20), _row(0.29)) == "ok"
    assert compare.verdict(setup, _row(0.20), _row(0.31)) == "worse"
    assert compare.verdict(exact, _row(16.7), _row(16.7)) == "ok"
    assert compare.verdict(exact, _row(16.7), _row(16.6)) == "worse"
