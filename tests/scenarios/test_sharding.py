"""Tests for the sharded multi-process soak engine.

The load-bearing claims: the key→shard rule is a deterministic
partition of the keyspace; every shard's schedule is a filtered view of
the *same* seeded draw (so the union of shard schedules is exactly the
unsharded schedule); the merged :class:`ShardedRunResult` equals the
single-process run on everything the streaming surface reports — op
counts, per-key verdicts, and (in the sparse open-loop regime, where
client queueing never couples ops across shards) Fraction-exact
latency means; and the aggregate verdict refuses rather than passing
vacuously when any shard ran unchecked.
"""

import multiprocessing
import operator
import os
import pickle
import signal
import time
from collections import Counter

import pytest

from repro.analysis.streaming import LatencyAccumulator
from repro.errors import ScenarioError, SimulationError
from repro.scenarios import (
    RandomMix,
    Read,
    ScenarioSpec,
    ShardedRunResult,
    Write,
    key_shard,
    run,
    run_sharded,
    shard_assignment,
)
from repro.scenarios import adapters, runner, sharding, workloads
from repro.scenarios.result import ShardOutcome, _merge_online, soak_row
from repro.scenarios.sharding import _run_shard, shard_spec, split_max_ops
from repro.scenarios.sweeps import SweepSpec, run_grid
from repro.scenarios.workloads import OpBudget, Propose, open_loop_stream
from repro.experiments.builders import keyed_mix_spec
from tests.counting import counted


def sharded_soak_spec(**overrides):
    """A small single-writer keyed streaming soak, open-loop as every
    sharded spec is: bounded by ``duration`` (the mix's horizon) unless
    an op budget is given."""
    settings = dict(
        protocol="abd", n_keys=12, writes=60, reads=90, readers=4,
        trace_level="metrics", seed=7,
    )
    settings.update(overrides)
    if settings.get("max_ops") is None:
        settings.setdefault("duration", 150.0)
    return keyed_mix_spec(**settings)


def sparse_open_loop_spec(**overrides):
    """Duration-bounded open loop with period >> op latency: no client
    ever queues one shard's op behind another's, so sharded latency is
    not just equivalent but *identical*."""
    settings = dict(
        protocol="abd", n_keys=12, writes=40, reads=60, readers=4,
        horizon=10_000.0, duration=9_000.0,
        trace_level="metrics", seed=11,
    )
    settings.update(overrides)
    return keyed_mix_spec(**settings)


class TestKeyShard:
    def test_deterministic_and_in_range(self):
        for key in range(64):
            assignment = key_shard(key, 4, seed=3)
            assert 0 <= assignment < 4
            assert assignment == key_shard(key, 4, seed=3)

    def test_every_shard_owns_keys(self):
        owners = {key_shard(key, 4, seed=0) for key in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_seed_changes_assignment(self):
        a = [key_shard(key, 4, seed=0) for key in range(64)]
        b = [key_shard(key, 4, seed=1) for key in range(64)]
        assert a != b

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ScenarioError):
            key_shard(0, 0)


def _expected_imbalance(table, n_keys, skew, shards):
    """max/mean expected shard load under the zipfian draw weights."""
    loads = [0.0] * shards
    for key in range(n_keys):
        loads[table[key]] += 1.0 / (key + 1) ** skew
    mean = sum(loads) / shards
    return max(loads) / mean


class TestShardAssignment:
    def test_uniform_matches_crc32_rule(self):
        table = shard_assignment(64, 4, seed=3, distribution="uniform")
        assert table == tuple(key_shard(key, 4, seed=3) for key in range(64))

    def test_degenerate_zipfian_falls_back_to_crc32(self):
        # One shard or one key: nothing to balance.
        assert shard_assignment(
            16, 1, seed=0, distribution="zipfian", skew=1.2
        ) == tuple(key_shard(key, 1, seed=0) for key in range(16))
        assert shard_assignment(
            1, 4, seed=0, distribution="zipfian", skew=1.2
        ) == (key_shard(0, 4, seed=0),)

    def test_zipfian_deterministic_and_total(self):
        a = shard_assignment(64, 4, seed=5, distribution="zipfian", skew=1.2)
        b = shard_assignment(64, 4, seed=5, distribution="zipfian", skew=1.2)
        assert a == b
        assert len(a) == 64
        assert set(a) == {0, 1, 2, 3}

    @pytest.mark.parametrize("skew", (0.8, 1.2, 2.0))
    def test_lpt_beats_crc32_on_expected_load(self, skew):
        n_keys, shards = 64, 4
        lpt = shard_assignment(
            n_keys, shards, seed=5, distribution="zipfian", skew=skew
        )
        crc = shard_assignment(n_keys, shards, seed=5,
                               distribution="uniform")
        lpt_imbalance = _expected_imbalance(lpt, n_keys, skew, shards)
        crc_imbalance = _expected_imbalance(crc, n_keys, skew, shards)
        assert lpt_imbalance <= crc_imbalance
        if skew <= 1.2:
            # The soak-gate regime: balanced within the 1.3 budget.
            assert lpt_imbalance <= 1.3

    def test_rejects_bad_counts(self):
        with pytest.raises(ScenarioError):
            shard_assignment(16, 0)
        with pytest.raises(ScenarioError):
            shard_assignment(0, 2)


class TestSpecValidation:
    def test_shards_must_be_positive_int(self):
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(ScenarioError):
                sharded_soak_spec().with_(shards=bad)

    def test_sharded_needs_single_random_mix(self):
        with pytest.raises(ScenarioError, match="RandomMix"):
            ScenarioSpec(
                protocol="abd", readers=1, shards=2, n_keys=4,
                trace_level="metrics",
                workload=(Write(0.0, "v"), Read(5.0)),
            )

    def test_sharded_needs_enough_keys(self):
        with pytest.raises(ScenarioError, match="n_keys"):
            sharded_soak_spec(n_keys=2).with_(shards=4)

    def test_sharded_needs_metrics_trace(self):
        with pytest.raises(ScenarioError, match="metrics"):
            sharded_soak_spec(trace_level="full").with_(shards=2)

    def test_sharded_needs_the_open_loop_rule(self):
        """A closed-loop mix does not shard: the refusal names the two
        stopping rules that do."""
        closed = sharded_soak_spec(duration=None)
        assert run(closed).ops_begun() == 150
        with pytest.raises(ScenarioError, match="set duration or max_ops"):
            closed.with_(shards=2)

    def test_sharded_needs_budget_per_shard(self):
        with pytest.raises(ScenarioError, match="max_ops"):
            sharded_soak_spec(max_ops=2).with_(shards=4)

    def test_run_sharded_rejects_single_shard(self):
        with pytest.raises(ScenarioError, match="shards >= 2"):
            run_sharded(sharded_soak_spec())

    def test_run_sharded_rejects_consensus(self):
        spec = sharded_soak_spec().with_(shards=2)
        object.__setattr__(spec, "protocol", "paxos")
        with pytest.raises(ScenarioError, match="storage"):
            run_sharded(spec)


class TestSplitMaxOps:
    def test_partitions_exactly(self):
        assert split_max_ops(10, 4) == [3, 3, 2, 2]
        assert sum(split_max_ops(1_000_003, 8)) == 1_000_003

    def test_none_stays_none(self):
        assert split_max_ops(None, 3) == [None, None, None]

    def test_shard_spec_carries_allotment_and_view(self):
        spec = sharded_soak_spec(max_ops=10).with_(shards=4)
        subs = [shard_spec(spec, index) for index in range(4)]
        assert [sub.max_ops for sub in subs] == [3, 3, 2, 2]
        assert all(sub.shards == 1 for sub in subs)
        assert [sub.param("shard_index") for sub in subs] == [0, 1, 2, 3]
        assert all(sub.param("shard_count") == 4 for sub in subs)


class TestSchedulePartition:
    """The union of shard schedules is exactly the unsharded schedule."""

    def test_zipfian_stream_partitions(self):
        """The LPT table is still a fixed partition of one seeded draw:
        every client's shard views add up to its unsharded stream, and
        each view yields only the keys the table gives its shard."""
        mix = RandomMix(writes=50, reads=80, horizon=100.0,
                        distribution="zipfian", skew=1.2)
        readers, seed, n_keys, shards = 4, 13, 16, 4
        table = shard_assignment(n_keys, shards, seed, "zipfian", 1.2)

        def ops(shard):
            out = []
            for role, count in (("writer", 2), ("reader", readers)):
                for index in range(count):
                    out.extend((role, index) + op for op in open_loop_stream(
                        mix, role, index, count, seed, OpBudget(None),
                        100.0, n_keys=n_keys, shard=shard,
                    ))
            return out

        whole = ops(None)
        parts = [ops((index, table)) for index in range(shards)]
        assert all(parts)
        assert sorted(sum(parts, [])) == sorted(whole)
        assert sum(len(part) for part in parts) == len(whole)
        for index, part in enumerate(parts):
            assert {table[op[-1]] for op in part} == {index}

    def test_a_shard_run_computes_its_key_table_once(self, monkeypatch):
        """The table is a pure function of the spec: a shard's run
        computes it once and hands it to every client stream (here six:
        two writers, four readers)."""
        calls = Counter()
        table = counted(workloads, "shard_assignment", calls)
        for module in (adapters, workloads):
            monkeypatch.setattr(module, "shard_assignment", table)
        spec = sharded_soak_spec(skew=1.2, n_writers=2).with_(shards=2)
        outcome = _run_shard(spec, 0)
        assert sum(outcome.completed.values()) > 0
        assert calls == {"shard_assignment": 1}

    def test_open_loop_stream_partitions(self):
        mix = RandomMix(writes=200, reads=0, horizon=1000.0)
        seed, shards = 5, 4
        table = shard_assignment(16, shards, seed)

        def ops(shard):
            return list(open_loop_stream(
                mix, "writer", 0, 1, seed, OpBudget(None), 900.0,
                n_keys=16, shard=shard,
            ))

        whole = ops(None)
        parts = [ops((index, table)) for index in range(shards)]
        assert sorted(sum(parts, [])) == sorted(whole)
        # value serials match the unsharded encoding even after filtering
        assert set(sum(parts, [])) <= set(whole)


#: Multi-writer soaks (stamped writers, the ``"mw"`` online checker) on
#: both storage families, closed loop and under an op budget.
MW_SOAKS = {
    f"{loop}-{label}": dict(
        n_writers=3, n_keys=16, seed=5, max_ops=max_ops, **settings
    )
    for loop, max_ops in (("duration", None), ("open", 3000))
    for label, settings in (
        ("abd", dict(protocol="abd")),
        ("rqs-bounded", dict(protocol="rqs-storage",
                             params={"bounded_history": True})),
    )
}


def _assert_same_counts_and_verdicts(base, sharded, mode):
    assert isinstance(sharded, ShardedRunResult)
    assert sharded.op_kinds() == base.op_kinds()
    assert base.online is not None and sharded.online is not None
    assert sharded.ops_begun() == base.ops_begun()
    assert sharded.ops_completed() == base.ops_completed()
    assert (
        sharded.online.checked_writes + sharded.online.checked_reads
        == base.online.checked_writes + base.online.checked_reads
    )
    if base.spec.max_ops is None:
        # (An op budget is split across the shards up front, so each
        # shard cuts its own stream: the total is preserved, the
        # write:read split of the last few ops is not.)
        for kind in ("write", "read"):
            assert sharded.ops_begun(kind) == base.ops_begun(kind)
            assert sharded.ops_completed(kind) == base.ops_completed(kind)
        assert sharded.online.checked_writes == base.online.checked_writes
        assert sharded.online.checked_reads == base.online.checked_reads
    assert sharded.online.keys == base.online.keys
    assert sharded.online.violation_count == 0
    assert sharded.online.verdict == base.online.verdict == "atomic"
    assert sharded.online.mode == base.online.mode == mode
    assert not sharded.blocked


class TestEquivalence:
    """Sharded-vs-unsharded: the streaming surface agrees."""

    def test_duration_bounded_counts_and_verdicts(self):
        spec = sharded_soak_spec()
        _assert_same_counts_and_verdicts(
            run(spec), run(spec.with_(shards=4)), "sw"
        )

    @pytest.mark.parametrize("name", sorted(MW_SOAKS))
    def test_multi_writer_counts_and_verdicts(self, name):
        """``n_writers > 1`` shards like everything else: each shard
        deploys the whole writer fleet and the merged ``"mw"`` verdict
        covers exactly the ops the unsharded run checks."""
        spec = sharded_soak_spec(**MW_SOAKS[name])
        base = run(spec)
        _assert_same_counts_and_verdicts(
            base, run(spec.with_(shards=2)), "mw"
        )
        if spec.max_ops is not None:
            assert base.ops_completed() == spec.max_ops

    def test_sparse_open_loop_latency_is_fraction_exact(self):
        spec = sparse_open_loop_spec()
        base = run(spec)
        sharded = run(spec.with_(shards=4))
        for kind in ("write", "read"):
            base_acc = base.adapter.trace.accumulator(kind)
            merged_acc = LatencyAccumulator.merge(
                o.accumulators[kind] for o in sharded.outcomes
            )
            # Fraction-exact: the summed time numerators agree, not
            # just their rounded float projections.
            assert merged_acc.time_sum == base_acc.time_sum
            assert merged_acc.count == base_acc.count
            # Below reservoir capacity the quantiles are exact too, so
            # the whole summary is equal, not merely close.
            assert (
                sharded.latency_streaming(kind)
                == base.latency_streaming(kind)
            )
        assert sharded.ops_begun() == base.ops_begun()
        assert sharded.online.keys == base.online.keys

    @pytest.mark.parametrize("skew", (0.8, 1.2, 2.0))
    def test_skewed_counts_and_verdicts(self, skew):
        """The LPT-sharded zipfian soak agrees with the unsharded run
        at 2 and 4 shards: same per-kind counts, same per-key verdict
        surface, atomic everywhere."""
        spec = sharded_soak_spec(skew=skew)
        base = run(spec)
        for shards in (2, 4):
            sharded = run(spec.with_(shards=shards))
            assert isinstance(sharded, ShardedRunResult)
            for kind in (None, "write", "read"):
                assert sharded.ops_begun(kind) == base.ops_begun(kind)
                assert (
                    sharded.ops_completed(kind) == base.ops_completed(kind)
                )
            assert sharded.online.keys == base.online.keys
            assert sharded.online.violation_count == 0
            assert sharded.online.verdict == base.online.verdict == "atomic"
            assert not sharded.blocked

    def test_skewed_sparse_open_loop_latency_is_fraction_exact(self):
        spec = sparse_open_loop_spec(skew=1.2)
        base = run(spec)
        sharded = run(spec.with_(shards=4))
        for kind in ("write", "read"):
            base_acc = base.adapter.trace.accumulator(kind)
            merged_acc = LatencyAccumulator.merge(
                o.accumulators[kind] for o in sharded.outcomes
            )
            assert merged_acc.time_sum == base_acc.time_sum
            assert merged_acc.count == base_acc.count
        assert sharded.ops_begun() == base.ops_begun()

    def test_max_ops_budget_is_preserved(self):
        spec = sharded_soak_spec(max_ops=500)
        sharded = run(spec.with_(shards=4))
        assert sharded.ops_begun() == 500
        assert sharded.n_shards == 4

    def test_serial_fallback_matches_pool_execution(self):
        spec = sparse_open_loop_spec().with_(shards=2)
        pooled = run_sharded(spec)
        serial = ShardedRunResult(
            spec, [_run_shard(spec, index) for index in range(2)],
            worker_processes=0,
        )
        assert serial.ops_begun() == pooled.ops_begun()
        assert serial.online == pooled.online
        for kind in ("write", "read"):
            assert (
                serial.latency_streaming(kind)
                == pooled.latency_streaming(kind)
            )

    def test_the_pool_hands_shards_a_spec_that_does_not_pickle(self):
        """The shard workers inherit the spec by fork: a spec does not
        pickle, yet every shard runs on a worker process of its own."""
        spec = sharded_soak_spec().with_(shards=2)
        with pytest.raises(TypeError):
            pickle.dumps(spec)
        pooled = run_sharded(spec)
        assert pooled.worker_processes == 2
        assert [o.index for o in pooled.outcomes] == [0, 1]
        assert pooled.ops_begun() == run(spec.with_(shards=1)).ops_begun()


def _nested_shards_spec():
    return sharded_soak_spec(writes=20, reads=30).with_(shards=2)


def _grid_cell_with_nested_shards():
    """Module-level so the stdlib pool can pickle it by name (a spec
    does not pickle: the worker builds its own)."""
    result = run_sharded(_nested_shards_spec())
    return (result.worker_processes, result.ops_begun(),
            result.online.verdict)


class TestNestedMultiprocessing:
    def test_daemonic_worker_falls_back_to_serial(self):
        direct = run_sharded(_nested_shards_spec())
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            workers, begun, verdict = pool.apply(
                _grid_cell_with_nested_shards
            )
        assert workers == 0  # serial in-process fallback
        assert begun == direct.ops_begun()
        assert verdict == direct.online.verdict

    def test_a_grid_worker_gets_its_cell_function_back(self, watchdog):
        """One grid worker runs every cell: the first two fork their
        shards' pool, and the two unsharded cells after them still run
        as cells, because the pool restores the worker's slot."""
        grid = SweepSpec(
            name="slot", axes={"shards": (2, 1), "seed": (7, 8)},
            base=sharded_soak_spec(),
        )

        def without_host(sweep):
            assert sweep.verdict_counts() == {"atomic": 4}
            for cell in sweep.cells:
                cell.metrics.pop("host")
            return sweep.to_json()

        pooled = run_grid(grid, executor="multiprocessing", processes=1)
        assert without_host(pooled) == without_host(run_grid(grid))


class TestMapInPool:
    def test_results_keep_item_order_over_uneven_chunks(self, watchdog):
        """Contiguous chunks come home in item order, an uneven tail
        included, whatever the chunk size."""
        for total, workers, chunksize in (
            (10, 2, 1), (12, 2, 3), (13, 3, 4), (3, 2, 8), (1, 1, 1),
        ):
            results, used = sharding.map_in_pool(
                operator.neg, range(total), workers, lost="lost",
                chunksize=chunksize,
            )
            assert results == tuple(-i for i in range(total))
            assert used == workers

    def test_a_daemonic_caller_initializes_and_maps_in_process(
        self, monkeypatch
    ):
        """The in-process branch maps ``fn`` itself, in item order —
        there is no initializer: ``fn`` carries what it needs — leaves
        the pool's slot alone and reports no worker processes."""
        monkeypatch.setitem(
            multiprocessing.current_process()._config, "daemon", True
        )
        calls = []
        results, used = sharding.map_in_pool(
            calls.append, ("a", "b"), 4, lost="lost",
        )
        assert calls == ["a", "b"]
        assert (results, used) == ((None, None), 0)
        assert sharding._POOL_FN is None


class TestMergeOnline:
    def _outcome(self, index, online, refusal=None):
        return ShardOutcome(
            index=index, begun={}, completed={}, blocked=(), events=0,
            messages=0, accumulators={}, online=online,
            online_refusal=refusal,
        )

    def test_refuses_when_any_shard_unchecked(self):
        spec = sharded_soak_spec()
        checked = _run_shard(spec.with_(shards=2), 0)
        from repro.analysis.streaming import OnlineRefusal
        unchecked = self._outcome(
            1, None, OnlineRefusal("workload-shape", "test")
        )
        report, refusal = _merge_online([checked, unchecked])
        assert report is None
        assert refusal.reason == "shard-refused"
        assert "workload-shape" in refusal.detail

    def test_merged_report_sums_and_unions(self):
        spec = sharded_soak_spec().with_(shards=4)
        outcomes = [_run_shard(spec, index) for index in range(4)]
        report, refusal = _merge_online(outcomes)
        assert refusal is None
        assert report.checked_writes + report.checked_reads == sum(
            o.online.checked_writes + o.online.checked_reads
            for o in outcomes
        )
        assert set(report.keys) == {
            key for o in outcomes for key in o.online.keys
        }
        assert report.mode == "sw"

    def test_sharded_result_surfaces_refusal(self):
        from repro.analysis.streaming import OnlineRefusal
        spec = sharded_soak_spec().with_(shards=2)
        good = _run_shard(spec, 0)
        bad = self._outcome(1, None, OnlineRefusal("not-storage", "x"))
        result = ShardedRunResult(spec, [good, bad], worker_processes=0)
        assert result.online is None
        assert result.online_refusal.reason == "shard-refused"
        row = soak_row(result)
        assert (row["verdict"], row["atomic"]) == ("unchecked", False)


class TestImbalance:
    def _outcome(self, index, completed, cpu_seconds=0.0):
        return ShardOutcome(
            index=index, begun={}, completed=completed, blocked=(),
            events=0, messages=0, accumulators={}, online=None,
            online_refusal=None, cpu_seconds=cpu_seconds,
        )

    def _result(self, outcomes):
        spec = sharded_soak_spec().with_(shards=len(outcomes))
        return ShardedRunResult(spec, outcomes, worker_processes=0)

    def test_imbalance_is_max_over_mean(self):
        result = self._result([
            self._outcome(0, {"write": 20, "read": 40}),
            self._outcome(1, {"write": 10, "read": 10}),
        ])
        # loads 60 and 20, mean 40 -> 1.5
        assert result.imbalance == pytest.approx(1.5)

    def test_imbalance_of_empty_run_is_one(self):
        result = self._result([self._outcome(0, {}), self._outcome(1, {})])
        assert result.imbalance == 1.0

    def test_live_run_surface(self):
        """A real sharded run reports its imbalance."""
        result = run(sharded_soak_spec().with_(shards=2))
        assert soak_row(result)["imbalance"] == pytest.approx(
            result.imbalance, abs=1e-4
        )
        assert result.imbalance >= 1.0


class TestShardedResultSurface:
    def test_a_fleets_counters_are_its_shards_summed(self):
        """Outcomes come home in any order; the fleet sorts them by
        shard, sums each counter over them and names a blocked client
        by its shard."""
        def outcome(index, begun, completed, blocked, events, messages):
            return ShardOutcome(
                index=index, begun=begun, completed=completed,
                blocked=blocked, events=events, messages=messages,
                accumulators={}, online=None, online_refusal=None,
            )

        result = ShardedRunResult(
            sharded_soak_spec().with_(shards=2),
            [
                outcome(1, {"write": 4}, {"write": 3}, ("r1",), 50, 30),
                outcome(0, {"write": 2, "read": 5}, {"read": 5}, (), 70, 40),
            ],
            worker_processes=2,
        )
        assert [o.index for o in result.outcomes] == [0, 1]
        assert result.n_shards == 2
        assert result.op_kinds() == ("read", "write")
        assert (result.ops_begun(), result.ops_begun("write")) == (11, 6)
        assert (result.ops_completed(), result.ops_completed("write")) == (
            8, 3
        )
        assert result.ops_completed("cas") == 0
        assert (result.events_processed, result.messages) == (120, 70)
        assert result.blocked == ("shard1:r1",)

    def test_a_fleet_merged_from_outcomes_has_a_soak_row(self):
        """Without ``run_sharded``'s clock a fleet reads its slowest
        shard's execute seconds, so the row's rates are defined; with
        it, the seconds since the clock started, the merge included."""
        spec = sharded_soak_spec().with_(shards=2)
        outcomes = [_run_shard(spec, index) for index in range(2)]
        result = ShardedRunResult(spec, outcomes, worker_processes=0)
        slowest = max(o.execute_seconds for o in outcomes)
        assert result.execute_seconds == slowest > 0
        row = soak_row(result)
        assert row["verdict"] == "atomic"
        assert row["host"]["execute_seconds"] == round(slowest, 4)
        assert row["host"]["ops_per_sec"] == round(
            result.ops_completed() / slowest, 1
        )
        clocked = ShardedRunResult(
            spec, outcomes, worker_processes=0,
            started=time.perf_counter() - 2.0,
        )
        assert clocked.execute_seconds >= 2.0
        assert soak_row(clocked)["host"]["execute_seconds"] >= 2.0

    def test_soak_row_shape_and_extras(self):
        spec = sharded_soak_spec().with_(shards=4)
        result = run(spec)
        row = soak_row(result)
        assert (row["verdict"], row["shards"]) == ("atomic", 4)
        assert result.op_kinds() == ("read", "write")
        assert {"read_p99", "write_p99"} <= set(row)
        assert row["host"]["cpu_seconds"] > 0
        assert row["host"]["capacity_ops_per_sec"] > 0
        assert len(result.shard_rss_kb) == 4
        assert result.max_shard_rss_kb == max(result.shard_rss_kb)
        assert result.streamed
        assert result.events_processed > 0
        assert result.messages > 0
        assert result.execute_seconds > 0

    def test_server_history_merges_for_rqs(self):
        spec = sharded_soak_spec(
            protocol="rqs-storage", writes=30, reads=40,
        ).with_(shards=2)
        result = run(spec)
        history = result.server_history
        assert history is not None
        assert history["bounded_history"] in (True, False)
        assert history["retained_cells"] >= 0


def batched_soak_spec(**overrides):
    """The batched 16-key ``abd`` soak, cut to 2000 operations."""
    settings = dict(
        writes=400, reads=600, readers=4, seed=5, trace_level="metrics",
        max_ops=2000, batch_size=16,
    )
    settings.update(overrides)
    return keyed_mix_spec("abd", 16, **settings)


class TestFleetOfOne:
    """An unsharded result answers the fleet questions as one shard."""

    def test_run_result_is_a_fleet_of_one(self):
        result = run(batched_soak_spec())
        assert not isinstance(result, ShardedRunResult)
        assert (result.n_shards, result.worker_processes) == (1, 1)
        assert result.imbalance == 1.0
        assert len(result.shard_rss_kb) == 1
        assert result.max_shard_rss_kb == result.shard_rss_kb[0] > 0
        assert result.cpu_seconds == result.execute_cpu_seconds > 0
        assert result.capacity_ops_per_sec == (
            result.ops_completed() / result.cpu_seconds
        )
        assert result.messages == result.adapter.network.sent_count > 0

    def test_one_row_shape(self):
        spec = batched_soak_spec()
        plain, fleet = run(spec), run(spec.with_(shards=2))
        rows = [soak_row(plain), soak_row(fleet)]
        assert set(rows[0]) == set(rows[1])
        assert set(rows[0]["host"]) == set(rows[1]["host"])
        assert [row["shards"] for row in rows] == [1, 2]
        assert [row["host"]["workers"] for row in rows] == [1, 2]
        for row in rows:
            assert (row["completed"], row["verdict"]) == (2000, "atomic")
            assert row["keys_checked"] == 16 and row["checker_mode"] == "sw"
            assert row["overrun_unchecked"] == 0
            assert len(row["host"]["shard_rss_kb"]) == row["shards"]

    def test_a_fleet_of_one_reports_as_its_run_does(self):
        """A run's one outcome, made a fleet, reports the same row: the
        two classes answer every streaming question with one code."""
        spec = batched_soak_spec()
        plain = run(spec)
        fleet = ShardedRunResult(spec, plain.outcomes, worker_processes=1)
        rows = [soak_row(plain), soak_row(fleet)]
        for row in rows:
            del row["host"]
        assert rows[0] == rows[1]
        assert rows[0]["verdict"] == "atomic"

    def test_a_shards_run_carries_its_index(self):
        spec = batched_soak_spec().with_(shards=2)
        (outcome,) = run(shard_spec(spec, 1)).outcomes
        assert outcome.index == 1
        assert run(batched_soak_spec()).outcomes[0].index == 0

    @pytest.mark.parametrize("reason, spec", [
        ("workload-shape", ScenarioSpec(
            "abd", workload=(Write(0.0, "v"), Read(10.0)),
            trace_level="metrics",
        )),
        ("unsound-stamps", ScenarioSpec(
            "naive", n_writers=2, readers=2, seed=3, trace_level="metrics",
            workload=(RandomMix(6, 6, horizon=40.0),),
        )),
        ("not-storage", ScenarioSpec(
            "paxos", workload=(Propose(0.0, "v"),), trace_level="metrics",
        )),
    ])
    def test_a_refused_run_keeps_its_own_reason(self, reason, spec):
        """Only a fleet of several shards refuses as ``shard-refused``;
        one run, or one outcome made a fleet, names its own reason."""
        result = run(spec)
        fleet = ShardedRunResult(spec, result.outcomes, worker_processes=1)
        for surface in (result, fleet):
            assert surface.online is None
            assert surface.online_refusal.reason == reason
            assert soak_row(surface)["verdict"] == "unchecked"

    def test_the_surface_stays_live(self):
        """Each read builds the outcome afresh, so driving the
        simulator on after ``run`` moves the counters."""
        result = run(ScenarioSpec(
            "abd", workload=(Write(0.0, "v"), Read(10.0)), horizon=5.0,
        ))
        events = result.events_processed
        assert (result.ops_completed(), len(result.blocked)) == (1, 1)
        result.adapter.sim.run(until=50.0)
        assert result.events_processed > events
        assert (result.ops_completed(), result.blocked) == (2, ())

    def test_reading_a_live_run_moves_nothing_it_reports(self):
        """Every read of a streamed run asks its checker for a report;
        a run read at each step of a hand-driven tail reports what an
        unread one does, the sampled ``max_retained`` included."""
        spec = batched_soak_spec(batch_size=1, max_ops=4000)

        def drive(read):
            result = run(spec.with_(horizon=50.0))
            cut = result.ops_completed()
            for step in range(1, 40):
                result.adapter.sim.run(until=50.0 + 7.0 * step)
                if read:
                    result.online, result.events_processed
            assert result.ops_completed() > cut
            return soak_row(result)

        rows = [drive(read) for read in (False, True)]
        for row in rows:
            del row["host"]
        assert rows[0] == rows[1]

    def test_default_measure_is_backend_independent_without_host(self):
        """Invariant 2 for streamed cells, a sharded one included (under
        the multiprocessing backend its pool worker is not daemonic, so
        it forks the cell's two shards — ``host.workers == 2``)."""
        grid = SweepSpec(
            name="fleet", axes={"shards": (1, 2)}, base=batched_soak_spec()
        )

        def without_host(sweep):
            assert sweep.verdict_counts() == {"atomic": 2}
            hosts = [cell.metrics.pop("host") for cell in sweep.cells]
            return sweep.to_json(), [host["workers"] for host in hosts]

        serial, serial_workers = without_host(run_grid(grid))
        pooled, pooled_workers = without_host(
            run_grid(grid, executor="multiprocessing", processes=2)
        )
        assert serial == pooled
        assert (serial_workers, pooled_workers) == ([1, 2], [1, 2])


def _seed_6_livelocks(spec):
    """Stands in for ``runner.run``, which a shard worker calls: a
    seed-6 shard trips the simulator's livelock guard, any other spec
    runs."""
    if spec.seed == 6:
        raise SimulationError("exceeded 50 events; livelock suspected")
    return run(spec)


def _shard_one_is_killed(spec, index):
    """Stands in for ``sharding._run_shard``: shard 1's worker dies."""
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_shard(spec, index)


class TestShardFailure:
    def test_a_killed_worker_fails_the_run(self, monkeypatch, watchdog):
        monkeypatch.setattr(sharding, "_run_shard", _shard_one_is_killed)
        started = time.monotonic()
        with pytest.raises(ScenarioError, match="shard worker .* died"):
            run(batched_soak_spec().with_(shards=2))
        assert time.monotonic() - started < 5.0

    def test_an_exception_in_a_worker_names_the_shard(
        self, monkeypatch, watchdog
    ):
        monkeypatch.setattr(runner, "run", _seed_6_livelocks)
        spec = batched_soak_spec(seed=6).with_(shards=2)
        with pytest.raises(
            ScenarioError, match="shard 0 of 2 failed: SimulationError"
        ):
            run(spec)
