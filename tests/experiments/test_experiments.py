"""Tests asserting every experiment driver reproduces its paper claim."""

import pytest

from repro.core.constructions import threshold_rqs
from repro.core.properties import negate_property3
from repro.experiments import (
    baselines,
    batched,
    bounds,
    consensus_latency,
    contention,
    fig1,
    fig4,
    metrics_ablation,
    storage_latency,
    stress,
    theorem3,
    theorem6,
)


class TestFig1:
    def test_naive_violates(self):
        outcome = fig1.run_naive()
        assert not outcome.report.atomic
        assert {v.rule for v in outcome.report.violations} == {
            "read-inversion"
        }
        assert outcome.r1_value == "v" and outcome.r1_rounds == 1

    def test_fastabd_survives_same_schedule(self):
        outcome = fig1.run_fastabd()
        assert outcome.report.atomic
        assert outcome.r2_value == "v"


class TestFig4:
    def test_matches_paper(self):
        outcome = fig4.run_experiment()
        assert fig4.matches_paper(outcome)


class TestStorageLatency:
    def test_table_matches(self):
        rows = storage_latency.run_experiment()
        assert storage_latency.matches_paper(rows)


class TestConsensusLatency:
    def test_table_matches(self):
        rows = consensus_latency.run_experiment()
        assert consensus_latency.matches_paper(rows)


class TestTheorem3:
    def test_violation_demonstrated(self):
        outcome = theorem3.run_experiment()
        assert theorem3.violation_demonstrated(outcome)

    def test_broken_rqs_fails_only_p3(self):
        rqs = theorem3.broken_rqs()
        names = [name for name, _ in rqs.violations()]
        assert names == ["P3"]

    def test_valid_sibling_admits_no_witness(self):
        """The control: example6, the family the broken one is cut
        from, has no Property-3 negation witness at all."""
        control = threshold_rqs(8, 3, 1, 1, 2)
        assert negate_property3(
            control.adversary, control.qc1, control.qc2, control.quorums
        ) is None


class TestTheorem6:
    def test_violation_demonstrated(self):
        outcome = theorem6.run_experiment()
        assert theorem6.violation_demonstrated(outcome)

    def test_choose_exhibit(self):
        broken_value, valid_value = theorem6.run_choose_exhibit()
        assert broken_value == 0 and valid_value == 1


class TestBounds:
    def test_sweep_tight_small(self):
        result = bounds.run_sweep(max_n=7)
        assert result.tight and result.points > 300

    def test_minimal_sizes(self):
        assert bounds.minimal_system_sizes(4) == [
            (1, 4), (2, 7), (3, 10), (4, 13),
        ]


class TestBaselines:
    def test_comparison_matches(self):
        results = baselines.run_experiment()
        assert baselines.matches_paper(results)


class TestStress:
    @pytest.mark.parametrize("seed", range(6))
    def test_storage_stress(self, seed):
        outcome = stress.storage_stress(seed)
        assert outcome.ok

    def test_consensus_liveness(self):
        outcome = stress.consensus_liveness(gst=30.0, horizon=1500.0)
        assert outcome.terminated and outcome.agreement_ok


class TestContention:
    def test_every_cell_atomic_with_per_key_verdicts(self):
        from repro.scenarios import run_grid

        sweep = run_grid(contention.GRID.where(protocol="abd", seed=0))
        assert sweep.verdict_counts() == {"atomic": len(sweep.cells)}
        for cell in sweep.cells:
            per_key = cell.metrics["per_key"]
            assert per_key and all(
                verdict == "atomic" for verdict in per_key.values()
            )

    def test_zipfian_8key_per_key_verdicts(self):
        verdicts = contention.zipfian_key_verdicts(n_keys=8, seed=0)
        assert len(verdicts) > 1
        assert all(v == "atomic" for v in verdicts.values())

    def test_serial_and_mp_backends_agree(self):
        from repro.scenarios import run_grid

        grid = contention.GRID.where(protocol="fastabd", n_keys=8)
        serial = run_grid(grid)
        parallel = run_grid(grid, executor="multiprocessing", processes=2)
        assert serial.to_json() == parallel.to_json()

    def test_rows_fold_the_full_grid(self):
        rows = contention.run_experiment()
        assert len(rows) == 18
        assert all(row.atomic_cells == row.cells == 2 for row in rows)


class TestBatchedTail:
    def test_tail_grid_shape(self):
        axes = dict(batched.TAIL_GRID.axes)
        assert axes["protocol"] == ("fastabd", "rqs-storage")
        assert axes["batch"] == (1, batched.TAIL_BATCH)
        for protocol in axes["protocol"]:
            spec = batched.TAIL_GRID.build({
                "protocol": protocol, "batch": 16,
                "seed": batched.TAIL_SEED,
            })
            assert spec.faults == batched.TAIL_PLANS[protocol]
            assert spec.workload[0].batch_size == 16

    def test_tail_p99_contract(self):
        """The per-element completion claim: under the lossy-GST plans
        batching never inflates the p99 read tail beyond 1.5× the
        unbatched protocol — and the comparison is non-vacuous (the
        rqs-storage plan degrades unbatched reads to the Theorem 9
        three-round figure)."""
        rows = batched.run_tail()
        assert len(rows) == 2
        by_protocol = {row.protocol: row for row in rows}
        for row in rows:
            assert row.verdict == "atomic"
            assert row.unbatched_p99 > 0
            assert row.batched_p99 <= 1.5 * row.unbatched_p99
        assert by_protocol["rqs-storage"].unbatched_p99 >= 6.0


class TestMetricsAblation:
    def test_shapes(self):
        rows = metrics_ablation.sweep((0.0, 0.05, 0.1, 0.2, 0.3))
        assert rows[0].expected_latency == pytest.approx(1.0)
        assert rows[-1].avail_class1 < rows[0].avail_class1
        # Class-1 quorums are bigger: more load, and as p grows they
        # die first, so the expected best-case latency only degrades.
        assert rows[0].load_class1 > rows[0].load_class3
        for earlier, later in zip(rows, rows[1:]):
            assert later.avail_class1 <= earlier.avail_class1
            assert later.expected_latency >= earlier.expected_latency

    def test_search(self):
        results = metrics_ablation.search_cost((4, 5, 6))
        assert all(quorums >= 1 for _, quorums, _ in results)
