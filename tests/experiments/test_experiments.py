"""Every paper claim, asserted on the cells of its exhibit's grid.

An exhibit is its grid (``repro.experiments``): each cell's measure hook
records the verdict and the numbers the paper states, and each test
below reads them off ``run_grid(GRID)`` with the expected value next to
it — through ``cell.require().result`` where a fact is not a metric
(the rule a checker names, the values two executions returned).
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core import properties
from repro.core.constructions import (
    threshold_rqs,
    threshold_rqs_predicted_valid,
)
from repro.core.properties import check_property3
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
from repro.scenarios import FaultPlan, run_grid
from tests.counting import counted


def _sweep(grid):
    """A class-scoped fixture running ``grid`` once for its tests."""
    return pytest.fixture(scope="class")(lambda self: run_grid(grid))


class TestFig1:
    sweep = _sweep(fig1.GRID)

    def test_naive_violates(self, sweep):
        (cell,) = sweep.select(algorithm=fig1.NAIVE)
        result = cell.require().result
        assert all(read.complete for read in result.reads)
        assert cell.verdict == "violation"
        assert {v.rule for v in result.atomicity.violations} == {
            "read-inversion"
        }
        assert cell.metrics["r1_value"] == repr("v")
        assert cell.metrics["r1_rounds"] == 1
        assert cell.metrics["r2_value"] == "⊥"

    def test_fastabd_survives_same_schedule(self, sweep):
        (cell,) = sweep.select(algorithm=fig1.FASTABD)
        assert all(read.complete for read in cell.require().result.reads)
        assert cell.verdict == "atomic"
        assert cell.metrics["r2_value"] == repr("v")


class TestFig4:
    sweep = _sweep(fig4.GRID)

    def test_matches_paper(self, sweep):
        assert sweep.verdict_counts() == {"atomic": 2}
        (ex1,) = sweep.select(stage="ex1")
        assert ex1.metrics["write_rounds"] == 1
        (composed,) = sweep.select(stage="ex3+ex4")
        assert all(read.complete for read in composed.require().result.reads)
        assert composed.metrics["ex3_value"] == repr(1)
        assert composed.metrics["ex3_rounds"] == 2
        assert composed.metrics["ex4_value"] == repr(1)


class TestStorageLatency:
    def test_table_matches(self):
        sweep = run_grid(storage_latency.GRID)
        assert sweep.verdict_counts() == {"atomic": 6}
        for cls, rounds in storage_latency.PAPER_CLAIM.items():
            for op, expected in zip(("write", "read"), rounds):
                (cell,) = sweep.select(op=op, quorum_class=cls)
                assert cell.metrics["rounds"] == expected, (op, cls)


class TestConsensusLatency:
    def test_table_matches(self):
        sweep = run_grid(consensus_latency.GRID)
        assert sweep.verdict_counts() == {"ok": 3}
        for cls, delay in consensus_latency.PAPER_CLAIM.items():
            (cell,) = sweep.select(quorum_class=cls)
            metrics = cell.metrics
            assert metrics["worst_delay"] == delay, cls
            # Every learner learned, none later than the claim.
            assert max(metrics["delays"].values()) == delay, cls


class TestTheorem3:
    sweep = _sweep(theorem3.GRID)

    def test_violation_demonstrated(self, sweep):
        """rd1 is fast and returns v1, rd2 cannot tell ex4 from ex5, and
        the checker catches the execution that was realized: whatever
        rd2 returns, one of the two is wrong."""
        (ex4,) = sweep.select(execution=theorem3.WITH_WRITE)
        (ex5,) = sweep.select(execution=theorem3.WITHOUT_WRITE)
        ex4_r1, ex4_r2 = ex4.require().result.reads
        (ex5_r2,) = ex5.require().result.reads
        assert ex4_r1.complete and ex4_r2.complete and ex5_r2.complete
        assert ex4.metrics["r1_rounds"] == 1
        assert ex4.metrics["r1_value"] == repr("v1")
        assert ex4_r2.result == ex5_r2.result
        assert ex4.verdict == "violation"

    def test_rd2_reads_the_same_replies_in_both(self, sweep):
        """The indistinguishability itself: rd2 gets the same replies
        in ex4 and ex5 — in ex5 from a forger whose σ1 covers a register
        no message had named before its trigger."""
        from repro.storage.messages import RdAck

        def replies(label):
            (cell,) = sweep.select(execution=label)
            log = cell.require().result.adapter.network.log
            return sorted(
                (m.src, m.payload.rnd, tuple(m.payload.history.cells.items()))
                for m in log
                if m.dst == "reader2" and isinstance(m.payload, RdAck)
                and not m.held
            )

        ex4 = replies(theorem3.WITH_WRITE)
        assert ex4 == replies(theorem3.WITHOUT_WRITE)
        assert any(cells for _, _, cells in ex4)

    def test_broken_rqs_fails_only_p3(self):
        rqs = theorem3.broken_rqs()
        assert rqs.violated() == ("P3",)

    def test_valid_sibling_admits_no_witness(self):
        """The control: example6, the family the broken one is cut
        from, has no Property-3 negation witness at all."""
        control = threshold_rqs(8, 3, 1, 1, 2)
        assert check_property3(
            control.adversary, control.qc1, control.qc2, control.quorums
        ) is None


class TestTheorem6:
    def test_violation_demonstrated(self):
        (cell,) = run_grid(theorem6.END_TO_END_GRID).cells
        assert cell.verdict == "violation"
        learned = cell.metrics["learned"]
        assert set(learned.values()) == {0, 1}
        assert learned["l1"] == 1

    def test_choose_exhibit(self):
        sweep = run_grid(theorem6.CHOOSE_GRID)
        for family, value in (("broken", 0), ("valid", 1)):
            (cell,) = sweep.select(family=family)
            assert cell.metrics["value"] == value


class TestBounds:
    def test_sweep_tight_small(self):
        sweep = run_grid(bounds.bounds_grid(7))
        assert len(sweep.cells) > 300
        assert sweep.verdict_counts() == {"match": len(sweep.cells)}
        # Necessity is exercised: some points sit one short of validity.
        assert any(cell.metrics["boundary"] for cell in sweep.cells)

    def test_the_decision_names_what_the_witnesses_name(self):
        """The exhibit asks ``violated()``, so it no longer cross-checks
        the witness builder: here it is, on every point of the grid."""
        points = list(bounds.parameter_space(7))
        assert len(points) == 953
        for params in points:
            rqs = threshold_rqs(*params, validate=False)
            adversary = rqs.adversary
            qc1, quorums = (
                properties.family_masks(adversary, family)
                for family in (rqs.qc1, rqs.quorums)
            )
            witnesses = {
                "P1": properties.property1_witness(adversary, *quorums),
                "P2": properties.property2_witness(
                    adversary, *qc1, *quorums
                ),
                "P3": check_property3(
                    adversary, rqs.qc1, rqs.qc2, rqs.quorums
                ),
            }
            assert rqs.violated() == tuple(
                name for name, witness in witnesses.items()
                if witness is not None
            ), params

    def test_the_grid_builds_no_witness(self, monkeypatch):
        built = Counter()
        for witness in ("_first_p3_witness", "_covering_pair"):
            monkeypatch.setattr(properties, witness, counted(
                properties, witness, built
            ))
        sweep = run_grid(bounds.bounds_grid(7))
        assert sweep.verdict_counts() == {"match": 953}
        assert built == {}

    def test_minimal_sizes(self):
        """The PBFT-style instantiation (q=0, r=k=t): the smallest n."""
        for t, n in ((1, 4), (2, 7), (3, 10), (4, 13)):
            assert threshold_rqs_predicted_valid(n, t, t, 0, t)
            assert not threshold_rqs_predicted_valid(n - 1, t, t, 0, t)


class TestBaselines:
    def test_comparison_matches(self):
        storage = run_grid(baselines.STORAGE_GRID)
        rounds = {
            cell.point["algorithm"]: (
                cell.metrics["write_rounds"], cell.metrics["read_rounds"]
            )
            for cell in storage.cells
        }
        assert rounds == {
            "RQS storage (class 1)": (1, 1),
            "section-1.2 fast-ABD": (1, 1),
            "ABD": (1, 2),
        }
        consensus = run_grid(baselines.CONSENSUS_GRID)
        delay = {
            cell.point["algorithm"]: cell.metrics["learn_delays"]
            for cell in consensus.cells
        }
        for cls, claim in consensus_latency.PAPER_CLAIM.items():
            assert delay[f"RQS consensus (class {cls})"] == claim
        assert delay["crash Paxos"] >= 4.0
        assert delay["PBFT-lite"] >= 4.0


class TestStress:
    sweep = _sweep(stress.storage_stress_grid(range(6)))

    @pytest.mark.parametrize("seed", range(6))
    def test_storage_stress(self, sweep, seed):
        (cell,) = sweep.select(seed=seed)
        assert cell.verdict == "wait-free atomic"
        assert cell.metrics["completed"] == cell.metrics["operations"]

    def test_consensus_liveness(self):
        (cell,) = run_grid(stress.liveness_grid(30.0, 1500.0)).cells
        assert cell.verdict == "live"
        assert cell.metrics["terminated"] and cell.metrics["agreement_ok"]


class TestContention:
    sweep = _sweep(contention.GRID)

    def test_every_cell_atomic_with_per_key_verdicts(self, sweep):
        """Every register a cell touched is atomic on its own."""
        for cell in sweep.cells:
            per_key = cell.metrics["per_key"]
            assert per_key and all(
                verdict == "atomic" for verdict in per_key.values()
            )

    def test_zipfian_8key_per_key_verdicts(self, sweep):
        (cell,) = sweep.select(
            protocol="rqs-storage", n_keys=8, skew=1.2, seed=0
        )
        verdicts = cell.metrics["per_key"]
        assert len(verdicts) > 1
        assert all(v == "atomic" for v in verdicts.values())

    def test_serial_and_mp_backends_agree(self):
        grid = replace(contention.GRID, axes={
            **dict(contention.GRID.axes), "protocol": ("fastabd",),
            "n_keys": (8,),
        })
        serial = run_grid(grid)
        parallel = run_grid(grid, executor="multiprocessing", processes=2)
        assert serial.to_json() == parallel.to_json()

    def test_rows_fold_the_full_grid(self, sweep):
        """18 configurations × 2 seeds, all 36 cells atomic."""
        assert sweep.verdict_counts() == {"atomic": 36}
        for protocol in ("rqs-storage", "abd", "fastabd"):
            for n_keys in (1, 2, 8):
                for skew in (0.0, 1.2):
                    assert len(sweep.select(
                        protocol=protocol, n_keys=n_keys, skew=skew
                    )) == 2


class TestBatchedTail:
    sweep = _sweep(batched.TAIL_GRID)

    def test_tail_grid_shape(self):
        axes = dict(batched.TAIL_GRID.axes)
        assert axes["protocol"] == ("fastabd", "rqs-storage", "rqs-regular")
        assert axes["batch"] == (1, batched.TAIL_BATCH)
        assert axes["plan"] == ("tail", "none")
        assert batched.TAIL_PLANS["rqs-regular"] == (
            batched.TAIL_PLANS["rqs-storage"]
        )
        for protocol in axes["protocol"]:
            for plan, faults in (("tail", batched.TAIL_PLANS[protocol]),
                                 ("none", FaultPlan())):
                spec = batched.TAIL_GRID.build({
                    "protocol": protocol, "batch": 16, "plan": plan,
                    "seed": batched.TAIL_SEED,
                })
                assert spec.faults == faults
                assert spec.workload[0].batch_size == 16

    def test_tail_p99_contract(self, sweep):
        """The per-element completion claim: batching never inflates the
        p99 read tail beyond 1.5× the unbatched protocol, under the
        lossy-GST plans and fault-free — and the comparison is
        non-vacuous on both ends: the tail plans slow unbatched reads
        (rqs-storage to the Theorem 9 three-round figure, fast-ABD to a
        write-back), and fault-free every read, batched or not, takes
        the one round of the paper's headline."""
        assert sweep.verdict_counts() == {"atomic": 8, "regular": 4}

        def metrics(protocol, batch, plan):
            (cell,) = sweep.select(protocol=protocol, batch=batch, plan=plan)
            return cell.metrics

        for protocol in ("fastabd", "rqs-storage", "rqs-regular"):
            for plan in ("tail", "none"):
                unbatched, batched_p99 = (
                    metrics(protocol, batch, plan)["read_p99"]
                    for batch in (1, batched.TAIL_BATCH)
                )
                assert unbatched > 0
                assert batched_p99 <= 1.5 * unbatched, (protocol, plan)
            for batch in (1, batched.TAIL_BATCH):
                fault_free = metrics(protocol, batch, "none")
                assert fault_free["read_p99"] == 2.0
                assert fault_free["max_rounds"] == 1
        assert metrics("rqs-storage", 1, "tail")["read_p99"] >= 6.0
        assert metrics("fastabd", 1, "tail")["read_p99"] > 2.0

    def test_a_regular_read_takes_no_more_rounds_than_an_atomic_one(
        self, sweep,
    ):
        """The Section 6 remark on rqs-storage's plans: every rqs-regular
        cell is judged regular, and its reads never take more rounds
        than the atomic reader's on the same batch and plan."""
        regular = sweep.select(protocol="rqs-regular")
        assert {cell.verdict for cell in regular} == {"regular"}
        for cell in regular:
            (atomic,) = sweep.select(
                protocol="rqs-storage", batch=cell.point["batch"],
                plan=cell.point["plan"],
            )
            assert atomic.verdict == "atomic"
            assert (
                cell.metrics["max_rounds"] <= atomic.metrics["max_rounds"]
            ), cell.point

    def test_fabricator_cells(self):
        """A fabricating server lies to batched reads as to unbatched
        ones: both cells atomic, every read completed, none of them the
        forged value, and the batched tail within 1.5x the unbatched."""
        axes = dict(batched.FABRICATOR_GRID.axes)
        assert axes["protocol"] == ("rqs-storage",)
        assert axes["batch"] == (1, batched.TAIL_BATCH)
        sweep = run_grid(batched.FABRICATOR_GRID)
        assert sweep.verdict_counts() == {"atomic": 2}
        unbatched, batched_cell = (
            cell.metrics
            for batch in (1, batched.TAIL_BATCH)
            for cell in sweep.select(batch=batch)
        )
        for metrics in (unbatched, batched_cell):
            assert metrics["reads"] == batched.TAIL_READS
            assert metrics["forged_reads"] == 0
        assert batched_cell["read_p99"] <= 1.5 * unbatched["read_p99"]


class TestMetricsAblation:
    def test_shapes(self):
        sweep = run_grid(
            metrics_ablation.ablation_grid((0.0, 0.05, 0.1, 0.2, 0.3))
        )
        rows = [cell.metrics for cell in sweep.cells]
        assert rows[0]["expected_latency"] == pytest.approx(1.0)
        assert rows[-1]["avail_class1"] < rows[0]["avail_class1"]
        # Class-1 quorums are bigger: more load, and as p grows they
        # die first, so the expected best-case latency only degrades.
        assert rows[0]["load_class1"] > rows[0]["load_class3"]
        for earlier, later in zip(rows, rows[1:]):
            assert later["avail_class1"] <= earlier["avail_class1"]
            assert later["expected_latency"] >= earlier["expected_latency"]

    def test_search(self):
        sweep = run_grid(metrics_ablation.search_grid((4, 5, 6)))
        assert len(sweep.cells) == 3
        assert all(q >= 1 for q in sweep.metric_values("quorums"))
