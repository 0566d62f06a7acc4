"""Batched-vs-unbatched equivalence and the ``batch_size`` knob's guards.

The batched hot path must be an *optimization*, not a semantic change:
the same closed-loop spec run with ``batch_size=N`` must complete the
same operations, reach the same per-key final state, and carry the same
atomicity verdict as the ``batch_size=1`` run — across all five storage
protocols, single- and multi-writer stamping, and crash/lossy fault
plans.  (Message counts and latencies legitimately differ — that is the
point of batching.)
"""

from collections import Counter, defaultdict
from functools import partial

import pytest

from repro.errors import CheckerError, ScenarioError
from repro.experiments import keyed_mix_spec
from repro.scenarios import RandomMix, ScenarioSpec, run
from repro.scenarios.faults import Crash, Delay, Drop, FaultPlan, Hold
from repro.scenarios.workloads import Write

STORAGE_PROTOCOLS = ("abd", "fastabd", "naive", "rqs-storage", "rqs-regular")
RQS_PROTOCOLS = ("rqs-storage", "rqs-regular")

FAULT_PLANS = {
    "fault-free": FaultPlan(),
    "crash": FaultPlan(crashes=(Crash(1, 5.0),)),
    # Server 2's replies are lost until t=10 (a bounded lossy regime);
    # quorums routed around it until then.
    "lossy": FaultPlan(asynchrony=(
        Drop(src=(2,), until=10.0, label="lossy server 2"),
    )),
}


def _spec(protocol, *, batch_size=1, n_writers=1, faults=FaultPlan(),
          seed=11):
    return ScenarioSpec(
        protocol=protocol,
        rqs="example6" if protocol in RQS_PROTOCOLS else None,
        readers=3,
        n_writers=n_writers,
        n_keys=4,
        workload=(RandomMix(30, 40, horizon=70.0, batch_size=batch_size),),
        seed=seed,
        faults=faults,
    )


def _final_pairs(result):
    """Per-key highest stored ``(ts, value)`` across all servers.

    Batching moves which reads overlap which writes, so the lower cells
    a write-back parks differ between the runs: equivalence is on the
    winning pair per register, not on raw server state.
    """
    servers = list(result.adapter.servers.values())
    if result.spec.protocol in RQS_PROTOCOLS:
        keys = set().union(*(s.histories for s in servers))
        pairs_of = lambda s, k: tuple(
            s.history_for(k).snapshot().pairs()
        )
    else:  # the count-quorum kernel: one slotted server for all rows
        keys = set().union(*(s.slots for s in servers))
        pairs_of = lambda s, k: tuple(s.slots_for(k).values())
    out = {}
    for key in sorted(keys, key=repr):
        best = max(
            (p for s in servers for p in pairs_of(s, key)),
            key=lambda p: p.ts,
        )
        out[key] = (best.ts, best.val)
    return out


@pytest.mark.parametrize("fault_label", sorted(FAULT_PLANS))
@pytest.mark.parametrize("protocol", STORAGE_PROTOCOLS)
def test_batched_equals_unbatched_sw(protocol, fault_label):
    """Single-writer: bare per-key stamps are timing-independent, so
    batching must not change the final state at all."""
    faults = FAULT_PLANS[fault_label]
    plain = run(_spec(protocol, batch_size=1, faults=faults))
    batched = run(_spec(protocol, batch_size=8, faults=faults))

    assert plain.summary()["operations"] == batched.summary()["operations"]
    assert plain.summary()["completed"] == batched.summary()["completed"]
    assert _final_pairs(plain) == _final_pairs(batched)
    assert plain.atomicity.verdict == batched.atomicity.verdict


@pytest.mark.parametrize("fault_label", sorted(FAULT_PLANS))
@pytest.mark.parametrize("protocol", STORAGE_PROTOCOLS)
def test_batched_equals_unbatched_mw(protocol, fault_label):
    """Multi-writer: stamps come from timestamp discovery, so which of
    two *concurrent* writes wins a key is interleaving-dependent and
    batching legitimately changes the interleaving.  The MW contract is
    therefore: same operation counts, same verdict (naive's: the same
    refusal — its multi-writer stamps order nothing), and a fully
    deterministic batched execution (same spec → byte-identical run)."""
    faults = FAULT_PLANS[fault_label]
    plain = run(_spec(protocol, batch_size=1, n_writers=3, faults=faults))
    batched = run(_spec(protocol, batch_size=8, n_writers=3, faults=faults))

    assert plain.summary()["operations"] == batched.summary()["operations"]
    assert plain.summary()["completed"] == batched.summary()["completed"]
    if protocol == "naive":
        for result in (plain, batched):
            with pytest.raises(CheckerError, match="unsound-stamps"):
                result.atomicity
    else:
        assert plain.atomicity.verdict == batched.atomicity.verdict

    again = run(_spec(protocol, batch_size=8, n_writers=3, faults=faults))
    assert batched.fingerprint() == again.fingerprint()
    assert _final_pairs(batched) == _final_pairs(again)


@pytest.mark.parametrize("protocol", ("abd", "fastabd", "rqs-storage"))
def test_batching_collapses_events_per_op(protocol):
    """What batching buys, in its machine-independent form: on the
    16-key open-loop soak ``batch_size=16`` completes the same ops in
    >= 5x fewer simulated events, online-atomic either way (the gate
    holds the same ratio on the 100k ``abd-sw`` rows of
    ``BENCH_workload.json``)."""
    plain, batched = (
        run(keyed_mix_spec(
            protocol, 16, writes=4000, reads=6000, readers=8, seed=5,
            trace_level="metrics", max_ops=1000, batch_size=batch_size,
            params={"bounded_history": protocol == "rqs-storage"},
        ))
        for batch_size in (1, 16)
    )
    assert batched.ops_completed() == plain.ops_completed() == 1000
    assert plain.online.atomic and batched.online.atomic
    assert batched.events_processed * 5 <= plain.events_processed


def test_batch_size_one_is_byte_identical_to_default():
    """``batch_size=1`` takes the exact unbatched code path — same
    fingerprint as a spec that never mentions the knob."""
    for protocol in STORAGE_PROTOCOLS:
        default = run(_spec(protocol))
        explicit = run(_spec(protocol, batch_size=1))
        assert default.fingerprint() == explicit.fingerprint()


def test_batch_size_must_be_positive_int():
    with pytest.raises(ScenarioError, match="batch_size"):
        RandomMix(5, 5, horizon=10.0, batch_size=0)
    with pytest.raises(ScenarioError, match="batch_size"):
        RandomMix(5, 5, horizon=10.0, batch_size=-3)
    with pytest.raises(ScenarioError, match="batch_size"):
        RandomMix(5, 5, horizon=10.0, batch_size="2")


def test_batch_size_auto_is_refused():
    """The adaptive window rule is gone (it had no experiment and no
    gate); the word that turned it on is refused like any non-int."""
    with pytest.raises(ScenarioError, match="batch_size must be an int"):
        RandomMix(5, 5, horizon=10.0, batch_size="auto")


@pytest.mark.parametrize("batch_size", (2.0, None), ids=("float", "none"))
def test_a_batch_size_that_is_not_an_int_is_refused(batch_size):
    with pytest.raises(ScenarioError, match="batch_size must be an int"):
        RandomMix(5, 5, horizon=10.0, batch_size=batch_size)


@pytest.mark.parametrize("protocol", ("paxos", "pbft", "rqs-consensus"))
def test_consensus_adapters_reject_batching(protocol):
    """The refusal names the offending protocol and the knob value, so
    a sweep author can find the bad cell from the message alone."""
    spec = ScenarioSpec(
        protocol=protocol,
        rqs="example6" if protocol == "rqs-consensus" else None,
        workload=(RandomMix(3, 3, horizon=10.0, batch_size=4),),
        seed=1,
    )
    with pytest.raises(ScenarioError, match=rf"{protocol}.*batch_size=4"):
        run(spec)


def test_byzantine_servers_lie_on_batched_reads():
    """The spec once refused as vacuous — server 8 fabricating under
    ``batch_size=4`` — runs atomic, and the lie is on the wire: server
    8's ``ReadBatchAck`` columns carry the forged timestamp, and no read
    returns the forged value."""
    from repro.scenarios.faults import ByzantineRole
    from repro.storage.batching import ReadBatchAck
    from repro.storage.server import FabricatingServer

    result = run(ScenarioSpec(
        protocol="rqs-storage",
        rqs="example6",
        faults=FaultPlan(byzantine=(ByzantineRole(8, partial(
            FabricatingServer, forged_ts=999, forged_value="EVIL"
        )),)),
        workload=(RandomMix(3, 3, horizon=10.0, batch_size=4),),
        seed=1,
        trace_level="full",
    ))
    assert result.atomicity.atomic
    forged = [
        column
        for message in result.adapter.network.log
        if message.src == 8 and isinstance(message.payload, ReadBatchAck)
        for column in message.payload.replies
        if column.max_timestamp() == 999
    ]
    assert forged
    assert result.reads
    assert "EVIL" not in [read.result for read in result.reads]


def test_a_forgetful_server_wipes_every_register():
    """A forgery acts on every register the server holds, not one: in a
    batched 4-key run the forger's four registers are empty after its
    trigger, where an honest server's four are not."""
    from repro.scenarios.faults import ByzantineRole
    from repro.storage.server import ForgetfulServer

    result = run(ScenarioSpec(
        "rqs-storage", rqs="example6", readers=2, n_keys=4,
        faults=FaultPlan(byzantine=(ByzantineRole(1, partial(
            ForgetfulServer, trigger_time=100.0
        )),)),
        workload=(RandomMix(20, 20, horizon=40.0, batch_size=4),),
        seed=3,
    ))
    assert result.atomicity.atomic
    forger, honest = result.adapter.servers[1], result.adapter.servers[2]
    assert sorted(forger.histories) == sorted(honest.histories) == [0, 1, 2, 3]
    assert all(len(history) == 0 for history in forger.histories.values())
    assert all(len(history) > 0 for history in honest.histories.values())


def test_mixed_literal_expansion_rejects_batching():
    spec = ScenarioSpec(
        protocol="abd",
        workload=(
            Write(1.0, "v"),
            RandomMix(3, 3, horizon=10.0, batch_size=4),
        ),
        seed=1,
    )
    with pytest.raises(ScenarioError, match="batch_size"):
        run(spec)


class TestPerElementCompletion:
    """Batched reads complete element-wise, not at the batch's slowest
    element (the contract in ``repro.storage.batching``)."""

    def test_fastabd_fast_elements_skip_the_writeback(self):
        """One element with a contended (partial) pre-write fails the
        fast decision and waits out the write-back; the clean element
        completes two time units earlier at the collect instant."""
        from repro.storage.history import Pair

        adapter = run(ScenarioSpec(
            "fastabd", readers=1,
            workload=(Write(0.0, "a0", key="a"), Write(0.0, "b0", key="b")),
        )).adapter
        ts = adapter.writers[0].ts
        # Stage a newer pre-write visible at only 2 servers (< slow=3).
        for sid in list(adapter.servers)[:2]:
            adapter.servers[sid].slots_for("b")["pw"] = Pair(ts + 1, "b1")
        task = adapter.sim.spawn(
            adapter.readers[0].read_batch(["a", "b"]), "batch read"
        )
        adapter.sim.run_to_completion(strict=False)
        clean, contended = task.result
        assert (clean.result, clean.rounds) == ("a0", 1)
        assert (contended.result, contended.rounds) == ("b1", 2)
        assert clean.invoked_at == contended.invoked_at
        assert clean.completed_at < contended.completed_at
        # The batch completed as two waves of one: collect, write-back.
        assert adapter.trace.waves("read") == {1: 2}

    @pytest.mark.parametrize("protocol", RQS_PROTOCOLS)
    def test_rqs_elements_take_their_unbatched_rounds(self, protocol):
        """Under a partial write plus maximal crashes (the Theorem 9
        degraded class) each element of a batch completes in the rounds,
        at the instant and with the value its own unbatched read has on
        the same execution."""
        spec = ScenarioSpec(
            protocol, rqs="example6", readers=1,
            workload=(Write(0.0, "vb", key="b"), Write(5.0, "va", key="a")),
            faults=FaultPlan(
                crashes=[Crash(sid, 10.0) for sid in (2, 3, 4)],
                asynchrony=(Hold(src=("writer",), dst=(1,), after=5.0),),
            ),
        )

        def read(op, *args):
            result = run(spec)
            assert result.write(1).rounds == 1
            adapter = result.adapter
            task = adapter.sim.spawn(op(adapter.readers[0])(*args))
            adapter.sim.run_to_completion(strict=False)
            return task.result

        def seen(record):
            return (record.result, record.ts, record.rounds,
                    record.completed_at - record.invoked_at)

        batch = read(lambda reader: reader.read_batch, ["b", "a"])
        alone = [read(lambda reader: reader.read, key) for key in "ba"]
        assert [seen(r) for r in batch] == [seen(r) for r in alone]
        assert [r.result for r in batch] == ["vb", "va"]


@pytest.mark.parametrize("batch_size", (1, 2, 16))
@pytest.mark.parametrize("protocol", RQS_PROTOCOLS)
def test_a_batched_read_with_no_write_in_flight_takes_one_round(
    protocol, batch_size,
):
    """With no write in flight a class-1 quorum answers consistently, so
    every read returns in one round — batched or not, atomic or regular
    — and a batch costs one ``ReadBatch`` round to the eight servers
    and their eight replies, with no write-back."""
    result = run(keyed_mix_spec(
        protocol, 4, writes=0, reads=400, readers=2, seed=5,
        horizon=4000.0, trace_level="full", batch_size=batch_size,
    ))
    reads = result.reads
    assert len(reads) == result.ops_completed("read") == 400
    assert {record.rounds for record in reads} == {1}
    assert result.latency("read").p99_time == 2.0
    batches = {(record.process, record.invoked_at) for record in reads}
    assert result.adapter.network.sent_count == 2 * 8 * len(batches)
    per_reader = Counter(process for process, _ in batches)
    assert max(per_reader.values()) == -(-200 // batch_size)


def _waves_of(records, kind):
    """The completion waves the retained ``kind`` records show, per
    client in completion order: ``{process: [size, ...]}``."""
    waves = defaultdict(Counter)
    for record in records:
        if record.kind == kind and record.complete:
            waves[record.process][
                record.invoked_at, record.completed_at
            ] += 1
    return {
        process: [size for _, size in sorted(sizes.items(),
                                             key=lambda item: item[0][::-1])]
        for process, sizes in waves.items()
    }


class TestCompletionWaves:
    """``RunResult.summary()["kinds"][kind]["waves"]``: how many records
    each ``Trace.complete`` carried, by size."""

    @pytest.mark.parametrize("protocol", STORAGE_PROTOCOLS)
    def test_unbatched_ops_complete_in_waves_of_one(self, protocol):
        result = run(_spec(protocol))
        for kind in ("write", "read"):
            completed = result.ops_completed(kind)
            assert completed > 0
            assert result.summary()["kinds"][kind]["waves"] == {1: completed}

    def test_a_batch_of_16_fills_every_wave_but_each_clients_last(self):
        result = run(_spec("abd", batch_size=16))
        for kind in ("write", "read"):
            per_client = _waves_of(result.records, kind)
            for sizes in per_client.values():
                assert set(sizes[:-1]) <= {16} and 1 <= sizes[-1] <= 16
            assert result.waves(kind) == dict(sorted(Counter(
                size for sizes in per_client.values() for size in sizes
            ).items()))

    def test_a_fastabd_batch_completes_in_a_collect_and_a_write_back_wave(
        self,
    ):
        """A slowed writer leg leaves pre-writes at too few servers: the
        elements reading one wait out a write-back, the rest of their
        batch completes at the collect."""
        result = run(ScenarioSpec(
            "fastabd", readers=4, n_keys=4, seed=0,
            workload=(RandomMix(60, 120, horizon=80.0, batch_size=4),),
            faults=FaultPlan(asynchrony=(
                Delay(3.0, src=("writer",), dst=(1, 2, 3)),
            )),
        ))
        batches = defaultdict(list)
        for record in result.reads:
            batches[record.process, record.invoked_at].append(record)
        split = 0
        for batch in batches.values():
            waves = sorted({(r.completed_at, r.rounds) for r in batch})
            assert len(waves) <= 2
            if len(waves) == 2:
                split += 1
                assert [rounds for _, rounds in waves] == [1, 2]
        assert split >= 3
        assert result.waves("read") == dict(sorted(Counter(
            size for sizes in _waves_of(result.records, "read").values()
            for size in sizes
        ).items()))
