"""Tests for the spec-grid sweep engine (expansion, executors, export)."""

import csv
import doctest
import io
import json

import pytest

from repro.errors import ScenarioError, UnknownProtocolError
from repro.scenarios import (
    Crash,
    FaultPlan,
    RandomMix,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    derive_seed,
    labeled,
    percentile,
    run_grid,
    write_bench_json,
)
from repro.scenarios import sharding
from repro.scenarios import sweeps as sweeps_module

from tests.scenarios.test_sharding import (
    _shard_one_is_killed,
    batched_soak_spec,
)

#: A picklable base spec shared by the executor-parity tests.
BASE = ScenarioSpec(
    protocol="abd",
    readers=1,
    workload=(Write(0.0, "v"), Read(5.0)),
)

#: The acceptance grid: 2 protocols × 2 fault plans × 3 seeds.
ACCEPTANCE_GRID = SweepSpec(
    name="acceptance",
    axes={
        "protocol": ("abd", "fastabd"),
        "faults": (
            labeled("none", FaultPlan()),
            labeled("one-crash", FaultPlan(crashes=(Crash(1, 0.0),))),
        ),
        "seed": (0, 1, 2),
    },
    base=BASE,
)


def _failing_build(point):
    if point["seed"] == 1:
        raise ValueError("cell sabotage")
    return BASE.with_(seed=point["seed"])


FAILING_GRID = SweepSpec(
    name="failing",
    axes={"seed": (0, 1, 2)},
    build=_failing_build,
)


def _sharded_build(point):
    params = {"max_events": point["max_events"]}
    return batched_soak_spec(params=params).with_(shards=2)


#: A sharded soak, and the same soak with an event cap no shard fits in.
SHARDED_GRID = SweepSpec(
    name="shard-failure",
    axes={"max_events": (None, 50)},
    build=_sharded_build,
)


def _analytic_cell(point):
    return {"square": point["x"] ** 2, "verdict": "even" if point["x"] % 2 == 0 else "odd"}


ANALYTIC_GRID = SweepSpec(
    name="analytic",
    axes={"x": (1, 2, 3, 4)},
    evaluate=_analytic_cell,
)


class TestExpansion:
    def test_row_major_order_and_size(self):
        grid = ACCEPTANCE_GRID
        assert grid.size == 12
        cells = grid.cells()
        assert [c.index for c in cells] == list(range(12))
        # protocol is the slowest axis, seed the fastest.
        assert [c.labels["protocol"] for c in cells[:6]] == ["abd"] * 6
        assert [c.labels["seed"] for c in cells[:3]] == ["0", "1", "2"]
        assert cells[3].labels["faults"] == "one-crash"

    def test_default_builder_applies_spec_fields(self):
        specs = ACCEPTANCE_GRID.specs()
        assert specs[0].protocol == "abd" and specs[0].seed == 0
        assert specs[-1].protocol == "fastabd" and specs[-1].seed == 2
        assert specs[-1].faults.crashes == (Crash(1, 0.0),)
        # non-axis fields come from the base literal
        assert all(s.workload == BASE.workload for s in specs)

    def test_labels_for_complex_values(self):
        cells = ACCEPTANCE_GRID.cells()
        assert cells[0].labels["faults"] == "none"
        assert isinstance(cells[0].point["faults"], FaultPlan)

    def test_where_slices_by_label(self):
        sub = ACCEPTANCE_GRID.where(protocol="abd", seed=[0, 2])
        assert sub.size == 4
        assert all(c.labels["protocol"] == "abd" for c in sub.cells())
        assert sorted({c.labels["seed"] for c in sub.cells()}) == ["0", "2"]

    def test_where_unknown_axis_or_value(self):
        with pytest.raises(ScenarioError):
            ACCEPTANCE_GRID.where(nope=1)
        with pytest.raises(ScenarioError):
            ACCEPTANCE_GRID.where(protocol="paxos")

    def test_reserved_axis_names_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec(name="bad", axes={"ok": (1,)}, base=BASE)

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec(name="bad", axes={"seed": ()}, base=BASE)

    def test_default_builder_needs_protocol(self):
        grid = SweepSpec(name="bad", axes={"seed": (0,)})
        with pytest.raises(ScenarioError):
            grid.specs()

    def test_unknown_protocol_on_the_axis_raises_where_the_grid_is_built(
        self,
    ):
        with pytest.raises(UnknownProtocolError, match="raft"):
            SweepSpec(
                name="bad",
                axes={"protocol": ("abd", labeled("raft", "raft"))},
            )

    def test_evaluate_excludes_scenario_hooks(self):
        with pytest.raises(ScenarioError):
            SweepSpec(
                name="bad", axes={"x": (1,)},
                evaluate=_analytic_cell, base=BASE,
            )


class TestSeeding:
    def test_derive_seed_is_stable(self):
        assert derive_seed("sweep", 0) == derive_seed("sweep", 0)
        assert derive_seed("sweep", 0) != derive_seed("sweep", 1)
        assert derive_seed("sweep", 0) != derive_seed("other", 0)

    def test_seed_axis_is_pure_function_of_grid(self):
        first = [s.seed for s in ACCEPTANCE_GRID.specs()]
        second = [s.seed for s in ACCEPTANCE_GRID.specs()]
        assert first == second == [0, 1, 2] * 4


class TestExecutors:
    def test_acceptance_serial_vs_multiprocessing_byte_identical(self):
        serial = run_grid(ACCEPTANCE_GRID)
        parallel = run_grid(
            ACCEPTANCE_GRID, executor="multiprocessing", processes=2
        )
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        assert serial.verdict_counts() == {"atomic": 12}

    def test_dispatch_chunks_partition_the_grid_in_order(self):
        for total, workers in ((10, 2), (12, 2), (100, 3), (3, 8), (1, 1)):
            chunks = sweeps_module.dispatch_chunks(total, workers)
            assert [i for chunk in chunks for i in chunk] == list(range(total))
        # ~4 chunks per worker, an uneven tail kept.
        assert sweeps_module.dispatch_chunks(100, 2)[0] == tuple(range(12))
        assert sweeps_module.dispatch_chunks(100, 2)[-1] == (96, 97, 98, 99)

    def test_serial_keeps_live_result_handles(self):
        sweep = run_grid(ACCEPTANCE_GRID.where(seed=0))
        result = sweep.cells[0].unwrap()
        assert result.read().result == "v"

    def test_multiprocessing_cells_are_portable_only(self):
        sweep = run_grid(
            ACCEPTANCE_GRID.where(seed=0, protocol="abd"),
            executor="multiprocessing",
        )
        assert sweep.cells[0].ok
        with pytest.raises(ScenarioError):
            sweep.cells[0].unwrap()

    def test_unpicklable_sweep_raises_clearly(self):
        grid = SweepSpec(
            name="lambdas",
            axes={"seed": (0,)},
            build=lambda point: BASE,  # noqa: E731 — deliberately unpicklable
        )
        with pytest.raises(ScenarioError, match="not picklable"):
            run_grid(grid, executor="multiprocessing")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ScenarioError, match="unknown executor"):
            run_grid(ANALYTIC_GRID, executor="threads")
        with pytest.raises(ScenarioError, match="unknown executor"):
            run_grid(ANALYTIC_GRID, executor=sweeps_module.run_serial)

    def test_only_executor_and_processes_are_settable(self):
        import inspect

        parameters = list(inspect.signature(run_grid).parameters)
        assert parameters == ["sweep", "executor", "processes"]
        for knob in ("progress", "keep_results", "metadata"):
            with pytest.raises(TypeError):
                run_grid(ANALYTIC_GRID, **{knob: None})
        assert run_grid(ANALYTIC_GRID).metadata == {}


#: Strategy-parameterized cells: the knob is a spec field, so the
#: default builder sweeps it like any other axis.  Picklable end to
#: end (Strategy is frozen and picklable) — the mp backend must agree
#: byte-for-byte with serial despite the per-client strategy RNGs.
STRATEGY_GRID = SweepSpec(
    name="strategy-parity",
    axes={
        "rqs": ("grid-hetero", "grid-homog"),
        "quorum_strategy": ("uniform", "optimal"),
        "seed": (0, 1),
    },
    base=ScenarioSpec(
        protocol="rqs-storage",
        rqs="grid-hetero",
        readers=2,
        n_writers=2,
        n_keys=2,
        workload=(RandomMix(6, 6, horizon=25.0),),
        horizon=50.0,
    ),
)


#: Cells that share two named systems (each built once per process).
NAMED_RQS_GRID = SweepSpec(
    name="named-rqs",
    axes={"rqs": ("example6", "figure3"), "seed": (0, 1, 2)},
    base=ScenarioSpec(
        protocol="rqs-storage",
        readers=2,
        workload=(RandomMix(4, 6, horizon=25.0),),
        horizon=60.0,
    ),
)


class TestNamedSystemReuse:
    def test_shared_named_systems_serial_vs_mp_byte_identical(self):
        """Serial cells reuse one instance per name, every worker
        process builds its own: the aggregated JSON cannot tell."""
        serial = run_grid(NAMED_RQS_GRID)
        parallel = run_grid(
            NAMED_RQS_GRID, executor="multiprocessing", processes=2
        )
        assert serial.to_json() == parallel.to_json()
        assert serial.to_json() == run_grid(NAMED_RQS_GRID).to_json()
        assert serial.verdict_counts() == {"atomic": 6}


class TestStrategySweeps:
    def test_strategy_cells_serial_vs_mp_byte_identical(self):
        serial = run_grid(STRATEGY_GRID)
        parallel = run_grid(
            STRATEGY_GRID, executor="multiprocessing", processes=2
        )
        assert serial.to_json() == parallel.to_json()
        assert serial.verdict_counts() == {"atomic": 8}


class TestFailureIsolation:
    def test_one_bad_cell_does_not_kill_the_sweep(self):
        sweep = run_grid(FAILING_GRID)
        assert len(sweep.cells) == 3
        good = [c for c in sweep.cells if c.ok]
        bad = sweep.failures()
        assert len(good) == 2 and len(bad) == 1
        assert bad[0].point == {"seed": "1"}
        assert "ValueError: cell sabotage" in bad[0].error
        assert sweep.verdict_counts()["error"] == 1

    def test_isolation_matches_across_backends(self):
        serial = run_grid(FAILING_GRID)
        parallel = run_grid(FAILING_GRID, executor="mp")
        assert serial.to_json() == parallel.to_json()

    def test_unwrap_failed_cell_raises_with_error(self):
        sweep = run_grid(FAILING_GRID)
        with pytest.raises(ScenarioError, match="cell sabotage"):
            sweep.failures()[0].unwrap()

    def test_a_failed_shard_is_a_failed_cell_with_its_reason(
        self, monkeypatch
    ):
        fine, capped = run_grid(SHARDED_GRID).cells
        assert fine.ok and fine.verdict == "atomic"
        assert not capped.ok
        assert "shard 0 of 2 failed: SimulationError" in capped.error
        monkeypatch.setattr(sharding, "_run_shard", _shard_one_is_killed)
        (killed,) = run_grid(SHARDED_GRID.where(max_events="None")).cells
        assert not killed.ok
        assert "ScenarioError: a shard worker" in killed.error


class TestAnalyticSweeps:
    def test_evaluate_cells_carry_metrics_and_verdicts(self):
        sweep = run_grid(ANALYTIC_GRID)
        assert [c.metrics["square"] for c in sweep.cells] == [1, 4, 9, 16]
        assert sweep.verdict_counts() == {"even": 2, "odd": 2}
        assert sweep.cell(x=3).verdict == "odd"


class TestAggregation:
    def test_json_carries_every_cell(self):
        sweep = run_grid(ACCEPTANCE_GRID)
        payload = json.loads(sweep.to_json())
        assert payload["cells"] == [
            json.loads(json.dumps(cell.to_jsonable())) for cell in sweep.cells
        ]
        assert payload["verdicts"] == sweep.verdict_counts()

    @staticmethod
    def _csv_rows(sweep):
        rows = list(csv.DictReader(io.StringIO(sweep.to_csv())))
        assert len(rows) == len(sweep.cells)
        for row, cell in zip(rows, sweep.cells):
            assert int(row["index"]) == cell.index
            assert {a: row[a] for a in sweep.axis_names} == dict(cell.point)
            assert (row["ok"] == "true") == cell.ok
            assert (row["verdict"] or None, row["error"] or None) == (
                cell.verdict, cell.error
            )
            assert {
                key: json.loads(row[key])
                for key in sweep.metric_columns() if row[key] != ""
            } == dict(cell.metrics)
        return rows

    def test_csv_carries_every_cell(self):
        assert self._csv_rows(run_grid(ACCEPTANCE_GRID))

    def test_csv_carries_failures_too(self):
        rows = self._csv_rows(run_grid(FAILING_GRID))
        assert any(row["ok"] == "false" and row["error"] for row in rows)

    def test_summarize_mean_p50_p99(self):
        sweep = run_grid(ANALYTIC_GRID)
        stats = sweep.summarize("square")
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(7.5)
        assert stats["p50"] == 4 and stats["p99"] == 16
        # dotted keys reach nested summaries from the default measure
        latency = run_grid(ACCEPTANCE_GRID.where(seed=0))
        assert latency.metric_values("latency.p99")

    def test_select_filters_by_axis_label(self):
        sweep = run_grid(ACCEPTANCE_GRID)
        subset = sweep.select(protocol="abd", faults="one-crash")
        assert len(subset) == 3
        with pytest.raises(ScenarioError):
            sweep.select(bogus=1)
        with pytest.raises(ScenarioError):
            sweep.cell(protocol="abd")  # ambiguous: six cells

    def test_a_query_that_can_match_nothing_raises(self):
        """A result reads a filter as ``where`` does — a list keeps its
        labels, a labeled value its label — and a label its axis does
        not have raises instead of selecting nothing, so a claim
        asserted over the selection cannot pass vacuously."""
        sweep = run_grid(ACCEPTANCE_GRID)
        assert len(sweep.select(protocol="abd", seed=[0, 2])) == 4
        crash = dict(ACCEPTANCE_GRID.axes)["faults"][1]
        assert sweep.select(faults=crash) == sweep.select(faults="one-crash")
        assert sweep.cell(protocol="abd", faults=crash, seed=0).ok
        for filters in ({"seed": 7}, {"seed": [0, 7]}, {"protocol": "paxos"},
                        {"seed": []}):
            with pytest.raises(ScenarioError, match="no value matching"):
                sweep.select(**filters)
            with pytest.raises(ScenarioError, match="no value matching"):
                ACCEPTANCE_GRID.where(**filters)
        with pytest.raises(ScenarioError, match="values: 0, 1, 2"):
            sweep.metric_values("latency.p99", seed=[7, 8])

    def test_non_finite_floats_export_as_strict_json(self):
        import json

        from repro.scenarios import jsonable

        assert jsonable(float("inf")) == "inf"
        assert jsonable(float("-inf")) == "-inf"
        assert jsonable(float("nan")) == "nan"
        # the canonical export must stay RFC 8259-parseable
        grid = SweepSpec(
            name="inf", axes={"x": (1,)},
            evaluate=lambda point: {"v": float("inf")},
        )
        text = run_grid(grid).to_json()
        assert "Infinity" not in text
        json.loads(text)

    def test_require_surfaces_cell_error(self):
        sweep = run_grid(FAILING_GRID)
        ok_cell = [c for c in sweep.cells if c.ok][0]
        assert ok_cell.require() is ok_cell
        with pytest.raises(ScenarioError, match="cell sabotage"):
            sweep.failures()[0].require()

    def test_percentile_nearest_rank(self):
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile([1, 2, 3, 4], 99) == 4
        assert percentile([7], 1) == 7
        with pytest.raises(ScenarioError):
            percentile([], 50)

    def test_percentile_is_the_streaming_nearest_rank(self):
        import math

        from repro.analysis.streaming import nearest_rank

        for values in ([3.0], [4, 1, 3, 2], [2.5, 0.5, 2.5, 9.0, 1.0, 7.25]):
            ordered = sorted(values)
            for p in range(101):
                # The ceil(p/100 · n) rank, clamped to 1..n.
                rank = min(max(1, math.ceil(p / 100 * len(ordered))),
                           len(ordered))
                assert percentile(values, p) == ordered[rank - 1]
                assert percentile(values, p) == nearest_rank(ordered, p / 100)

    def test_table_renders_every_cell(self):
        sweep = run_grid(ANALYTIC_GRID)
        rows = sweep.table()
        assert len(rows) == 4 and "x=1" in rows[0]

    def test_write_bench_json(self, tmp_path):
        sweep = run_grid(ANALYTIC_GRID)
        path = write_bench_json(sweep, tmp_path)
        assert path.name == "BENCH_analytic.json"
        assert path.read_text() == sweep.to_json()


class TestDocs:
    def test_module_doctest(self):
        results = doctest.testmod(sweeps_module, verbose=False)
        assert results.attempted >= 4
        assert results.failed == 0
