"""The streaming execution pipeline end to end.

Three contracts pinned here:

1. **One draw, partitioned** — the per-client views of
   ``RandomMix.stream()`` are a deterministic partition of one seeded
   draw: round-robin clients, each view time-sorted, write values in
   global start-time order (the executions themselves are pinned by the
   golden fingerprints, which run through these views).
2. **Streaming summaries match** — on FULL runs the accumulator-backed
   latency path equals the list-based path exactly.
3. **Horizon-free runs** — the open-loop stopping rule generates
   deterministic runs in bounded memory with a real online verdict,
   and the record-backed verdicts refuse (with guidance) on streamed
   runs instead of silently reporting on an empty history.
4. **Live == replayed** — on every storage row the register checker
   judges, batched or not, the verdict the live checker reaches from
   the waves a METRICS run feeds it is the one ``check_history``
   reaches from the FULL run's records, one at a time.
"""

import pytest

from repro.errors import CheckerError, ScenarioError
from repro.scenarios import (
    Delay,
    Drop,
    FaultPlan,
    Propose,
    RandomMix,
    ScenarioSpec,
    Write,
    run,
)
from repro.scenarios.result import soak_row
from repro.scenarios.workloads import OpBudget, open_loop_stream

MIX_DRAWS = {
    "single-key": dict(mix=RandomMix(5, 8, horizon=50.0), n_readers=3,
                       seed=7, n_keys=1, n_writers=1),
    "keyed": dict(mix=RandomMix(20, 30, horizon=100.0), n_readers=4,
                  seed=13, n_keys=8, n_writers=1),
    "keyed-zipfian": dict(
        mix=RandomMix(20, 30, horizon=100.0, distribution="zipfian",
                      skew=1.2),
        n_readers=3, seed=3, n_keys=5, n_writers=1),
    "multi-writer": dict(mix=RandomMix(9, 12, horizon=60.0), n_readers=2,
                         seed=21, n_keys=4, n_writers=3),
    "more-readers-than-reads": dict(
        mix=RandomMix(2, 3, horizon=10.0), n_readers=5, seed=1,
        n_keys=1, n_writers=1),
}


class TestStreamViews:
    @pytest.mark.parametrize("name", sorted(MIX_DRAWS))
    def test_client_views_partition_one_draw(self, name):
        params = dict(MIX_DRAWS[name])
        mix, n_readers = params.pop("mix"), params.pop("n_readers")
        seed = params.pop("seed")
        stream = mix.stream(n_readers, seed, first_value=10, **params)
        writes = {
            w: list(stream.writer_ops(w)) for w in stream.writers_with_ops
        }
        reads = {
            r: list(stream.reader_ops(r)) for r in stream.readers_with_ops
        }
        # Deterministic: a second stream of the same draw agrees.
        again = mix.stream(n_readers, seed, first_value=10, **params)
        assert writes == {w: list(again.writer_ops(w)) for w in writes}
        assert reads == {r: list(again.reader_ops(r)) for r in reads}
        # Values count up from first_value in global start-time order,
        # dealt round-robin over the writers.
        merged = sorted(
            (value, at, w) for w, ops in writes.items()
            for at, value, _ in ops
        )
        assert [value for value, _, _ in merged] == list(
            range(10, 10 + mix.writes)
        )
        assert [at for _, at, _ in merged] == sorted(
            at for _, at, _ in merged
        )
        assert [w for _, _, w in merged] == [
            index % params["n_writers"] for index in range(mix.writes)
        ]
        # Reads: round-robin counts, each reader's view time-sorted.
        assert [len(reads[r]) for r in sorted(reads)] == [
            len(range(r, mix.reads, n_readers)) for r in sorted(reads)
        ]
        for ops in reads.values():
            assert ops == sorted(ops, key=lambda op: op[0])
        keys = {key for ops in writes.values() for _, _, key in ops}
        keys |= {key for ops in reads.values() for _, key in ops}
        assert keys <= set(range(params["n_keys"]))

    def test_stream_requires_readers_for_reads(self):
        with pytest.raises(ScenarioError, match="no readers"):
            list(RandomMix(1, 2, horizon=5.0).stream(0, 0).writer_ops(0))


class TestStreamingLatencySummaries:
    def test_full_run_accumulator_matches_records_exactly(self):
        spec = ScenarioSpec(
            protocol="abd", readers=3, n_keys=4,
            workload=(RandomMix(30, 50, horizon=120.0),), seed=9,
        )
        result = run(spec)
        assert not result.streamed
        for kind in ("write", "read"):
            assert result.latency(kind) == result.latency_streaming(kind)

    def test_streamed_run_reports_latency_from_accumulators(self):
        spec = ScenarioSpec(
            protocol="abd", readers=3, n_keys=4,
            workload=(RandomMix(30, 50, horizon=120.0),), seed=9,
        )
        full = run(spec)
        streamed = run(spec.with_(trace_level="metrics"))
        assert streamed.streamed
        assert streamed.records == ()
        for kind in ("write", "read"):
            assert streamed.latency(kind) == full.latency(kind)


class TestStreamedVerdicts:
    def test_closed_loop_metrics_run_gets_online_verdict(self):
        spec = ScenarioSpec(
            protocol="rqs-storage", rqs="example6", readers=2, n_keys=3,
            workload=(RandomMix(10, 15, horizon=60.0),), seed=4,
            trace_level="metrics",
        )
        result = run(spec)
        online = result.online
        assert online is not None and online.atomic
        assert (
            online.checked_writes + online.checked_reads
            == result.ops_completed()
        )

    def test_post_hoc_checkers_refuse_streamed_runs(self):
        spec = ScenarioSpec(
            protocol="abd", readers=2,
            workload=(RandomMix(5, 5, horizon=20.0),),
            trace_level="metrics",
        )
        result = run(spec)
        with pytest.raises(CheckerError, match="RunResult.online"):
            result.atomicity
        with pytest.raises(CheckerError, match="streamed"):
            result.fingerprint()

    def test_multi_mix_workloads_are_unchecked(self):
        """Two mixes interleave their value ranges in time, breaking
        the monotone-value invariant — the checker must stay unwired
        instead of reporting false violations."""
        spec = ScenarioSpec(
            protocol="abd", readers=2,
            workload=(RandomMix(5, 5, horizon=20.0),
                      RandomMix(5, 5, horizon=20.0)),
            seed=3, trace_level="metrics",
        )
        result = run(spec)
        assert result.online is None
        assert result.online_refusal.reason == "workload-shape"
        assert soak_row(result)["verdict"] == "unchecked"
        assert result.ops_completed() == 20

    def test_multi_writer_streams_get_mw_online_verdict(self):
        spec = ScenarioSpec(
            protocol="abd", readers=2, n_writers=2, n_keys=2,
            workload=(RandomMix(6, 6, horizon=30.0),), seed=2,
            trace_level="metrics",
        )
        result = run(spec)
        online = result.online
        assert online is not None and online.atomic
        assert online.mode == "mw"
        assert (
            online.checked_writes + online.checked_reads
            == result.ops_completed()
        )
        row = soak_row(result)
        assert (row["verdict"], row["checker_mode"]) == ("atomic", "mw")

    def test_consensus_streams_refuse_with_reason(self):
        spec = ScenarioSpec(
            protocol="paxos", workload=(Propose(0.0, "v"),),
            horizon=60.0, trace_level="metrics",
        )
        result = run(spec)
        assert result.online is None
        assert result.online_refusal.reason == "not-storage"
        assert "retained records" in str(result.online_refusal)

    def test_full_runs_keep_exact_post_hoc_checkers(self):
        spec = ScenarioSpec(
            protocol="abd", readers=2, n_keys=2,
            workload=(RandomMix(6, 6, horizon=30.0),), seed=2,
        )
        result = run(spec)
        assert result.online is None
        assert result.atomicity.atomic


class TestOpenLoop:
    def _spec(self, **changes):
        base = ScenarioSpec(
            protocol="abd", readers=4, n_keys=8,
            workload=(RandomMix(400, 600, horizon=1000.0),), seed=6,
            trace_level="metrics", max_ops=1500,
        )
        return base.with_(**changes) if changes else base

    def test_max_ops_budget_is_exact_and_deterministic(self):
        first, second = run(self._spec()), run(self._spec())
        assert first.ops_begun() == second.ops_begun() == 1500
        assert first.ops_completed() == 1500
        assert (
            first.adapter.sim.events_processed
            == second.adapter.sim.events_processed
        )
        assert (
            first.adapter.network.sent_count
            == second.adapter.network.sent_count
        )

    @pytest.mark.parametrize("protocol", ("abd", "fastabd", "rqs-storage"))
    def test_online_verdict_covers_the_whole_run(self, protocol):
        changes = {}
        if protocol == "rqs-storage":
            # Unbounded, the RQS servers keep O(writes) history cells.
            changes = dict(rqs="example6", params={"bounded_history": True})
        result = run(self._spec(protocol=protocol, **changes))
        online = result.online
        assert online is not None and online.atomic
        assert online.violations == ()
        assert (
            online.checked_writes + online.checked_reads
            == result.ops_completed() == 1500
        )
        assert len(online.keys) == 8
        assert online.max_retained < 100
        history = result.server_history
        if protocol == "rqs-storage":
            assert history["bounded_history"] is True
            assert history["gc_removed_cells"] > 0
            # O(servers x keys) cells, not O(writes).
            assert history["max_retained_cells"] < 2_000
        else:
            assert history is None

    def test_duration_stops_generation(self):
        result = run(self._spec(max_ops=None, duration=200.0))
        assert 0 < result.ops_begun() < 1500
        assert result.ops_begun() == result.ops_completed()
        # The simulation ran past the duration only to drain in-flight
        # ops, not to start new ones.
        assert result.adapter.sim.now < 250.0

    def test_open_loop_requires_a_single_random_mix(self):
        with pytest.raises(ScenarioError, match="open-loop"):
            run(self._spec(workload=(Write(0.0, "v"),)))
        with pytest.raises(ScenarioError, match="open-loop"):
            run(self._spec(workload=(
                RandomMix(1, 1, horizon=5.0), Write(0.0, "v"),
            )))

    def test_open_loop_requires_readers_for_reads(self):
        with pytest.raises(ScenarioError, match="no readers"):
            run(self._spec(readers=0, max_ops=50))

    def test_consensus_rejects_open_loop(self):
        spec = ScenarioSpec(
            protocol="paxos", workload=(Propose(0.0, "v"),),
            max_ops=10, horizon=60.0,
        )
        with pytest.raises(ScenarioError, match="storage"):
            run(spec)

    def test_writer_values_count_from_one(self):
        # An open-loop writer's values are the closed-loop round-robin
        # encoding from 1; there is no other starting value to set.
        mix = RandomMix(4, 0, horizon=8.0)
        ops = open_loop_stream(mix, "writer", 1, 2, 5, OpBudget(3), None)
        assert [value for _, value, _ in ops] == [2, 4, 6]
        with pytest.raises(TypeError, match="first_value"):
            open_loop_stream(mix, "writer", 1, 2, 5, OpBudget(3), None,
                             first_value=5)

    def test_spec_validates_stopping_rule(self):
        with pytest.raises(ScenarioError, match="duration"):
            self._spec(duration=-1.0)
        with pytest.raises(ScenarioError, match="max_ops"):
            self._spec(max_ops=0)


#: Every storage row the register checker judges (``naive`` with several
#: writers is refused: ``unsound-stamps``), at each batch size.
LIVE_ROWS = [
    (protocol, batch_size, n_writers)
    for protocol in ("abd", "fastabd", "naive", "rqs-storage", "rqs-regular")
    for batch_size in (1, 16)
    for n_writers in (1, 2)
    if not (protocol == "naive" and n_writers > 1)
]

#: A slow link into server 2 and a lossy window out of server 1, both
#: inside every row's tolerance.
LIVE_PLAN = FaultPlan(asynchrony=(
    Delay(3.0, dst=(2,), after=10.0, until=100.0),
    Drop(src=(1,), after=20.0, until=60.0),
))


def _verdict(report):
    return (
        report.verdict, report.checked_writes, report.checked_reads,
        report.violation_count, [v.rule for v in report.violations],
        report.key_violations,
    )


@pytest.mark.parametrize(
    "protocol, batch_size, n_writers", LIVE_ROWS,
    ids=[f"{p}-batch{b}-{'sw' if w == 1 else 'mw'}" for p, b, w in LIVE_ROWS],
)
def test_the_live_verdict_is_the_replayed_verdict(
    protocol, batch_size, n_writers,
):
    rqs = protocol in ("rqs-storage", "rqs-regular")
    spec = ScenarioSpec(
        protocol=protocol, rqs="example6" if rqs else None,
        params={"bounded_history": True} if rqs else {},
        readers=3, n_keys=4, n_writers=n_writers, seed=11,
        workload=(RandomMix(120, 180, horizon=150.0,
                            batch_size=batch_size),),
        faults=LIVE_PLAN,
    )
    full = run(spec)
    live = run(spec.with_(trace_level="metrics"))
    assert live.ops_completed() == full.ops_completed() == 300
    assert _verdict(live.online) == _verdict(full.atomicity)
