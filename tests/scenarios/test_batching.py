"""Batched-vs-unbatched equivalence and the ``batch_size`` knob's guards.

The batched hot path must be an *optimization*, not a semantic change:
the same closed-loop spec run with ``batch_size=N`` must complete the
same operations, reach the same per-key final state, and carry the same
atomicity verdict as the ``batch_size=1`` run — across all four storage
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
from repro.sim.conditions import Event
from repro.sim.tasks import AUTO_BATCH_MAX, _adaptive_batches

STORAGE_PROTOCOLS = ("abd", "fastabd", "naive", "rqs-storage")

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
        rqs="example6" if protocol == "rqs-storage" else None,
        readers=3,
        n_writers=n_writers,
        n_keys=4,
        workload=(RandomMix(30, 40, horizon=70.0, batch_size=batch_size),),
        seed=seed,
        faults=faults,
    )


def _final_pairs(result):
    """Per-key highest stored ``(ts, value)`` across all servers.

    Batched runs may park *more* low-timestamp state (e.g. the RQS
    batched read skips the BCD fast paths and always writes back), so
    equivalence is on the winning pair per register, not on raw server
    state.
    """
    servers = list(result.adapter.servers.values())
    if result.spec.protocol == "rqs-storage":
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
    assert plain.atomicity.atomic == batched.atomicity.atomic


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
        assert plain.atomicity.atomic == batched.atomicity.atomic

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


@pytest.mark.parametrize("fault_label", sorted(FAULT_PLANS))
@pytest.mark.parametrize("protocol", STORAGE_PROTOCOLS)
def test_adaptive_equals_unbatched_sw(protocol, fault_label):
    """``batch_size="auto"`` is an optimization with the same contract
    as a fixed batch: single-writer final state and verdict match the
    unbatched run under every fault plan."""
    faults = FAULT_PLANS[fault_label]
    plain = run(_spec(protocol, batch_size=1, faults=faults))
    adaptive = run(_spec(protocol, batch_size="auto", faults=faults))

    assert plain.summary()["operations"] == adaptive.summary()["operations"]
    assert plain.summary()["completed"] == adaptive.summary()["completed"]
    assert _final_pairs(plain) == _final_pairs(adaptive)
    assert plain.atomicity.atomic == adaptive.atomicity.atomic


@pytest.mark.parametrize("fault_label", ("crash", "lossy"))
@pytest.mark.parametrize("protocol", ("abd", "rqs-storage"))
def test_adaptive_replay_is_deterministic(protocol, fault_label):
    """The queue-depth feedback loop must be a pure function of the
    spec: replaying the same adaptive spec under faults is
    byte-identical."""
    faults = FAULT_PLANS[fault_label]
    first = run(_spec(protocol, batch_size="auto", n_writers=2,
                      faults=faults))
    again = run(_spec(protocol, batch_size="auto", n_writers=2,
                      faults=faults))
    assert first.fingerprint() == again.fingerprint()
    assert _final_pairs(first) == _final_pairs(again)
    assert first.atomicity.atomic == again.atomicity.atomic


class _FakeSim:
    """Just enough simulator surface to drive ``_adaptive_batches``."""

    def __init__(self, now=0.0):
        self.now = now
        self.deadlines = {}

    def timer_at(self, time):
        timer = Event(f"t>={time}")
        self.deadlines[timer] = time
        return timer


def _drain(gen, fake):
    """Run the generator, advancing the fake clock at every wait."""
    for waited in gen:
        fake.now = max(fake.now, fake.deadlines[waited.condition])


def test_adaptive_batches_respect_cap_and_clock():
    # 80 ops already due: chunks of the cap, then the remainder.
    sizes = []

    def run_batch(elems):
        sizes.append(len(elems))
        return iter(())

    fake = _FakeSim()
    _drain(_adaptive_batches(
        fake, iter([(0.0, i) for i in range(80)]), run_batch
    ), fake)
    assert sizes == [AUTO_BATCH_MAX, AUTO_BATCH_MAX, 80 - 2 * AUTO_BATCH_MAX]

    # A sparse schedule never coalesces: one future op per batch.
    sizes.clear()
    fake = _FakeSim()
    _drain(_adaptive_batches(
        fake, iter([(10.0, "a"), (20.0, "b")]), run_batch
    ), fake)
    assert sizes == [1, 1]
    assert fake.now == 20.0

    # A backlog behind a due head drains together.
    sizes.clear()
    fake = _FakeSim(now=15.0)
    _drain(_adaptive_batches(
        fake, iter([(10.0, "a"), (12.0, "b"), (20.0, "c")]), run_batch
    ), fake)
    assert sizes == [2, 1]


def test_batch_size_must_be_positive_int():
    with pytest.raises(ScenarioError, match="batch_size"):
        RandomMix(5, 5, horizon=10.0, batch_size=0)
    with pytest.raises(ScenarioError, match="batch_size"):
        RandomMix(5, 5, horizon=10.0, batch_size=-3)
    with pytest.raises(ScenarioError, match="batch_size"):
        RandomMix(5, 5, horizon=10.0, batch_size="2")


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


@pytest.mark.parametrize("batch_size", (4, "auto"))
def test_byzantine_servers_reject_batching(batch_size):
    """Byzantine server variants override the unbatched handlers only,
    so a batched run would answer every ``ReadBatch`` honestly and the
    role would pass vacuously — refuse, naming both knobs."""
    from repro.scenarios.faults import ByzantineRole
    from repro.storage.server import FabricatingServer

    spec = ScenarioSpec(
        protocol="rqs-storage",
        rqs="example6",
        faults=FaultPlan(byzantine=(ByzantineRole(8, partial(
            FabricatingServer, forged_ts=999, forged_value="EVIL"
        )),)),
        workload=(RandomMix(3, 3, horizon=10.0, batch_size=batch_size),),
        seed=1,
    )
    with pytest.raises(
        ScenarioError, match=rf"byzantine.*batch_size={batch_size!r}"
    ):
        run(spec)
    # The same role unbatched is the supported combination.
    unbatched = spec.with_(workload=(RandomMix(3, 3, horizon=10.0),))
    assert run(unbatched).atomicity.atomic


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

    def test_rqs_cohort_completes_under_degraded_quorums(self):
        """Both elements of a batch resolved in the same collect round
        form one cohort: they complete together at the cohort's
        write-back instant with the unbatched values — here under a
        partial write plus maximal crashes (the Theorem 9 degraded
        class), where the old whole-batch path is at its worst."""
        result = run(ScenarioSpec(
            "rqs-storage", rqs="example6", readers=1,
            workload=(Write(0.0, "vb", key="b"), Write(5.0, "va", key="a")),
            faults=FaultPlan(
                crashes=[Crash(sid, 10.0) for sid in (2, 3, 4)],
                asynchrony=(Hold(src=("writer",), dst=(1,), after=5.0),),
            ),
        ))
        assert result.write(1).rounds == 1
        adapter = result.adapter
        task = adapter.sim.spawn(
            adapter.readers[0].read_batch(["b", "a"]), "batch read"
        )
        adapter.sim.run_to_completion(strict=False)
        first, second = task.result
        assert (first.result, second.result) == ("vb", "va")
        # One cohort: collect plus the two-round line 49 write-back.
        assert first.rounds == second.rounds == 3
        assert first.completed_at == second.completed_at
        assert first.completed_at == first.invoked_at + 6.0


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

    @pytest.mark.parametrize("protocol", STORAGE_PROTOCOLS)
    def test_auto_waves_stay_under_the_cap(self, protocol):
        result = run(_spec(protocol, batch_size="auto"))
        sizes = {}
        for kind in ("write", "read"):
            sizes.update(waves := result.waves(kind))
            assert max(waves) <= AUTO_BATCH_MAX
            assert sum(size * n for size, n in waves.items()) == (
                result.ops_completed(kind)
            )
        assert max(sizes) > 1        # "auto" did coalesce something

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
