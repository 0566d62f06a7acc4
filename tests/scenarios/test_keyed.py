"""The keyed register space: workloads, protocols, per-key verdicts.

Covers the multi-layer lift end to end — workload expansion (keyspace
distributions, writer round-robin, the ``n_readers == 0`` guard),
multi-writer protocol behaviour (discovery rounds, totally-ordered
stamps), and the analysis layer's per-key verdict partition (cross-key
concurrency is linearizable, a violation on one key flips only that
key's verdict, registers are checked independently).
"""

import pytest

from repro.analysis.streaming import check_history
from repro.errors import ScenarioError
from repro.scenarios import (
    Propose,
    RandomMix,
    Read,
    Resync,
    ScenarioSpec,
    Write,
    run,
)
from repro.sim.trace import Trace
from repro.storage.history import DEFAULT_KEY, WRITER_STRIDE, make_stamp, stamp_seq
from tests.analysis.test_register_checker_oracle import is_linearizable, stamped


# -- the workload draw ----------------------------------------------------------

def _draw(mix, n_readers, seed, **stream_args):
    """One closed-loop draw, every client's view materialized:
    ``({writer: [(at, value, key)]}, {reader: [(at, key)]})``."""
    stream = mix.stream(n_readers, seed, **stream_args)
    return (
        {w: list(stream.writer_ops(w)) for w in stream.writers_with_ops},
        {r: list(stream.reader_ops(r)) for r in stream.readers_with_ops},
    )


class TestExpandRandomMix:
    def test_zero_readers_with_reads_raises(self):
        """Regression: reads used to be silently routed to reader 0."""
        with pytest.raises(ScenarioError, match="no readers"):
            _draw(RandomMix(2, 3, horizon=10.0), 0, seed=0)

    def test_zero_readers_without_reads_is_fine(self):
        writes, reads = _draw(RandomMix(3, 0, horizon=10.0), 0, seed=0)
        assert len(writes[0]) == 3 and reads == {}

    def test_single_key_defaults_touch_only_default_register(self):
        writes, reads = _draw(RandomMix(4, 6, horizon=20.0), 2, seed=1)
        assert list(writes) == [0]
        assert all(key == DEFAULT_KEY for _, _, key in writes[0])
        assert all(
            key == DEFAULT_KEY for ops in reads.values() for _, key in ops
        )

    def test_multi_key_draws_are_deterministic_per_seed(self):
        first = _draw(RandomMix(6, 8, horizon=20.0), 2, seed=9, n_keys=4)
        second = _draw(RandomMix(6, 8, horizon=20.0), 2, seed=9, n_keys=4)
        assert first == second

    def test_multi_key_keeps_single_key_times(self):
        """Key draws happen after all time draws, so the schedule's
        times/values are identical whatever the keyspace width."""
        base_w, base_r = _draw(RandomMix(5, 7, horizon=30.0), 2, seed=4)
        keyed_w, keyed_r = _draw(
            RandomMix(5, 7, horizon=30.0), 2, seed=4, n_keys=8
        )
        assert [(at, value) for at, value, _ in base_w[0]] == [
            (at, value) for at, value, _ in keyed_w[0]
        ]
        assert {
            reader: [at for at, _ in ops] for reader, ops in base_r.items()
        } == {
            reader: [at for at, _ in ops] for reader, ops in keyed_r.items()
        }

    def test_writers_assigned_round_robin(self):
        writes, _ = _draw(
            RandomMix(6, 0, horizon=10.0), 1, seed=0, n_writers=3
        )
        by_start = sorted(
            (at, writer) for writer, ops in writes.items()
            for at, _, _ in ops
        )
        assert [writer for _, writer in by_start] == [0, 1, 2, 0, 1, 2]

    def test_zipfian_skews_toward_low_keys(self):
        mix = RandomMix(200, 0, horizon=100.0, distribution="zipfian",
                        skew=1.5)
        writes, _ = _draw(mix, 1, seed=2, n_keys=8)
        counts = [0] * 8
        for _, _, key in writes[0]:
            counts[key] += 1
        assert counts[0] > counts[7]
        assert counts[0] >= max(counts[1:])

    def test_uniform_covers_the_keyspace(self):
        writes, _ = _draw(
            RandomMix(200, 0, horizon=100.0), 1, seed=3, n_keys=4
        )
        assert {key for _, _, key in writes[0]} == {0, 1, 2, 3}

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ScenarioError, match="distribution"):
            RandomMix(1, 1, horizon=10.0, distribution="pareto")


class TestSpecValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(ScenarioError, match="n_writers"):
            ScenarioSpec(protocol="abd", n_writers=0)
        with pytest.raises(ScenarioError, match="n_keys"):
            ScenarioSpec(protocol="abd", n_keys=0)

    def test_writer_index_out_of_range_rejected(self):
        spec = ScenarioSpec(
            protocol="abd", readers=1, n_writers=2,
            workload=(Write(0.0, "v", writer=2),),
        )
        with pytest.raises(ScenarioError, match="writer 2"):
            run(spec)

    @pytest.mark.parametrize("spec, complaint", [
        (ScenarioSpec("rqs-storage", rqs="example6", readers=2,
                      workload=(Write(0.0, "v"), Read(10.0, reader=-1))),
         "reader -1 but the spec only has 2 readers"),
        (ScenarioSpec("rqs-consensus", rqs="example6", proposers=2,
                      workload=(Propose(0.0, "v", proposer=-1),),
                      horizon=60.0),
         "proposer -1 but the spec only has 2 proposers"),
        (ScenarioSpec("rqs-consensus", rqs="example6", proposers=3,
                      workload=(Propose(0.0, "v"), Resync(5.0, proposer=-1)),
                      horizon=60.0),
         "proposer -1 but the spec only has 3 proposers"),
    ], ids=["Read", "Propose", "Resync"])
    def test_negative_client_index_rejected(self, spec, complaint):
        """Regression: ``-1`` used to address the *last* reader or
        proposer (Python's negative indexing) while ``writer=-1`` was
        refused; every client index is ``0 <= index < count``."""
        with pytest.raises(ScenarioError, match=complaint):
            run(spec)


# -- multi-writer stamps -------------------------------------------------------

class TestStamps:
    def test_stamps_total_order_by_seq_then_writer(self):
        assert make_stamp(1, 0) < make_stamp(1, 1) < make_stamp(2, 0)
        assert make_stamp(1, 0) > 0  # beats the initial timestamp

    def test_seq_roundtrip(self):
        assert stamp_seq(make_stamp(7, 3)) == 7

    def test_writer_id_bounds(self):
        with pytest.raises(ValueError):
            make_stamp(1, WRITER_STRIDE)


# -- multi-writer protocol behaviour -------------------------------------------

MW_PROTOCOLS = ("rqs-storage", "abd", "fastabd")


def _mw_spec(protocol, workload, **kwargs):
    return ScenarioSpec(
        protocol=protocol,
        rqs="example6" if protocol == "rqs-storage" else None,
        workload=workload,
        **kwargs,
    )


class TestMultiWriter:
    @pytest.mark.parametrize("protocol", MW_PROTOCOLS)
    def test_cross_key_concurrent_writes_are_linearizable(self, protocol):
        """Two writers writing different registers at the same instant:
        every per-key history is single-writer and the whole history is
        linearizable by locality."""
        spec = _mw_spec(
            protocol,
            (
                Write(0.0, "a1", key="a", writer=0),
                Write(0.0, "b1", key="b", writer=1),
                Write(6.0, "a2", key="a", writer=0),
                Write(6.0, "b2", key="b", writer=1),
                Read(14.0, reader=0, key="a"),
                Read(14.0, reader=1, key="b"),
            ),
            readers=2,
            n_writers=2,
        )
        result = run(spec)
        assert len(result.completed) == 6
        assert result.atomicity.atomic
        assert is_linearizable(result.records)
        assert result.read(0).result == "a2"
        assert result.read(1).result == "b2"

    @pytest.mark.parametrize("protocol", MW_PROTOCOLS)
    def test_sequential_cross_writer_writes_same_key_stay_atomic(
        self, protocol
    ):
        """Writer 2 writes *after* writer 1 completed: the discovery
        round must order its stamp above writer 1's, or the final read
        would be stale."""
        spec = _mw_spec(
            protocol,
            (
                Write(0.0, "first", writer=0),
                Write(10.0, "second", writer=1),
                Read(20.0),
            ),
            readers=1,
            n_writers=2,
        )
        result = run(spec)
        assert result.atomicity.atomic
        assert result.read().result == "second"

    @pytest.mark.parametrize("protocol", MW_PROTOCOLS)
    def test_mw_write_rounds_count_the_discovery_trip(self, protocol):
        """`OperationRecord.rounds` is "communication round-trips used",
        so MW writes report one more round than their SWMR shape."""
        single = run(_mw_spec(
            protocol, (Write(0.0, "v"),), readers=0, n_writers=1
        ))
        multi = run(_mw_spec(
            protocol, (Write(0.0, "v"),), readers=0, n_writers=2
        ))
        assert multi.write().rounds == single.write().rounds + 1

    def test_mw_timestamps_are_stamped_and_ordered(self):
        spec = _mw_spec(
            "rqs-storage",
            (Write(0.0, "x", writer=0), Write(10.0, "y", writer=1)),
            readers=0,
            n_writers=2,
        )
        result = run(spec)
        servers = result.adapter.servers
        stored = {
            ts
            for server in servers.values()
            for (ts, _rnd) in server.history_for(DEFAULT_KEY)._cells
        }
        assert all(ts >= WRITER_STRIDE for ts in stored)
        assert stamp_seq(max(stored)) == 2  # discovery saw write 1

    def test_concurrent_same_key_writes_are_judged_by_stamp_order(self):
        """Truly concurrent writes on one register: the protocol's
        stamps order them, and that order is a linearization (Wing–Gong
        agrees)."""
        spec = _mw_spec(
            "abd",
            (
                Write(0.0, "w0", writer=0),
                Write(0.0, "w1", writer=1),
                Read(8.0),
            ),
            readers=1,
            n_writers=2,
        )
        result = run(spec)
        assert result.atomicity.atomic
        assert is_linearizable(result.records)
        assert result.read().result in ("w0", "w1")


# -- per-key verdict partitioning ----------------------------------------------

def _synthetic_two_key_history():
    """Key "good" is clean; key "bad" has a stale read (version 1 read
    after write #2 completed).  Stamped as its single writer would."""
    trace = Trace()

    def op(kind, process, start, end, value=None, result=None, key=0):
        record, = trace.begin(kind, process, start, ((value, key),))
        trace.complete((record,), end, (result,), 0)
        return record

    op("write", "w", 0.0, 1.0, value="g1", key="good")
    op("read", "r1", 2.0, 3.0, result="g1", key="good")
    op("write", "w", 0.0, 1.0, value="b1", key="bad")
    op("write", "w", 2.0, 3.0, value="b2", key="bad")
    op("read", "r2", 4.0, 5.0, result="b1", key="bad")   # stale!
    return stamped(trace.records)


class TestPerKeyVerdicts:
    def test_violation_on_one_key_flips_only_that_key(self):
        report = check_history(_synthetic_two_key_history())
        assert not report.atomic
        assert report.key_violations == {"bad": 1}
        assert [v.rule for v in report.violations] == ["stale-read"]
        assert report.keys == ("bad", "good")

    def test_consensus_kinds_are_not_registers(self):
        trace = Trace()
        trace.begin("propose", "p", 0.0, ((None, 0),))
        record, = trace.begin("write", "w", 0.0, (("v", "k"),))
        record.meta["ts"] = 1
        trace.complete((record,), 1.0, ("OK",), 0)
        report = check_history(trace.records)
        assert report.keys == ("k",) and report.checked_ops == 1

    def test_linearizability_partitions_by_key(self):
        assert not is_linearizable(_synthetic_two_key_history())
        good_only = [
            r for r in _synthetic_two_key_history() if r.key == "good"
        ]
        assert is_linearizable(good_only)

    def test_regularity_partitions_by_key(self):
        report = check_history(
            _synthetic_two_key_history(), claim="regular"
        )
        assert not report.regular
        assert report.key_violations == {"bad": 1}

    def test_end_to_end_per_key_reports(self):
        spec = ScenarioSpec(
            protocol="rqs-storage", rqs="example6", readers=2, n_keys=3,
            workload=(
                Write(0.0, 1, key=0),
                Write(0.0, 2, key=1),
                Write(6.0, 3, key=2),
                Read(12.0, reader=0, key=0),
                Read(12.0, reader=1, key=1),
                Read(15.0, reader=0, key=2),
            ),
        )
        result = run(spec)
        assert result.keys == (0, 1, 2)
        assert result.key_verdicts == {0: True, 1: True, 2: True}
        assert sum(r.key == 1 for r in result.records) == 2
        assert result.fingerprint()[0][-1] == 0  # keyed digest carries keys


# -- seeded multi-register scenario end to end ---------------------------------

class TestKeyedRandomMix:
    def test_multi_register_mix_reproduces_fingerprints(self):
        spec = ScenarioSpec(
            protocol="rqs-storage", rqs="example6", readers=3,
            n_writers=2, n_keys=4,
            workload=(RandomMix(6, 9, horizon=60.0),),
            seed=13,
        )
        first, second = run(spec), run(spec)
        assert first.fingerprint() == second.fingerprint()
        assert first.atomicity.atomic
        assert len(first.keys) > 1

    def test_zipfian_mix_reports_per_key_verdicts(self):
        spec = ScenarioSpec(
            protocol="abd", readers=2, n_writers=2, n_keys=8,
            workload=(
                RandomMix(8, 10, horizon=80.0, distribution="zipfian",
                          skew=1.2),
            ),
            seed=5,
        )
        result = run(spec)
        verdicts = result.key_verdicts
        assert all(verdicts.values())
        assert set(verdicts) == set(result.keys)
