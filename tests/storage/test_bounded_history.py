"""Bounded-history garbage collection on the storage servers.

Three layers:

* ``History.store``/``History.gc_below`` cell accounting;
* the server's quorum-ack *evidence rules* (a server never sees acks,
  so it infers "a quorum acked strictly newer state" from the messages
  it receives) driven message by message, including the edge cases —
  same-timestamp write-back reuse, late stragglers below the stable
  mark, and the rejoin-after-isolation path;
* end to end: FULL-trace executions with ``bounded_history=True``
  keep their verdicts and retain strictly fewer history cells.  They
  are **bit-identical** to unbounded runs on the pre-keyed golden specs
  and on fresh multi-writer/keyed runs, but not always: where a
  reader's view is partial it can no longer confirm an older pair whose
  cells were collected, and takes another round (two batched
  ``lossy-view`` cells, pinned below).
"""

from functools import partial

import pytest

from repro.scenarios import (
    ByzantineRole,
    FaultPlan,
    Partition,
    RandomMix,
    ScenarioSpec,
    run,
)
from repro.storage.history import History, INITIAL_ENTRY, Pair
from repro.storage.messages import WR, WrAck
from repro.storage.server import ForgetfulServer, StorageServer
from tests.scenarios.test_golden_fingerprints import (
    GOLDEN_FINGERPRINTS,
    SPECS,
)
from tests.storage.test_batched_rqs_goldens import cell_spec


class TestHistoryAccounting:
    def test_store_returns_newly_materialized_cells(self):
        history = History()
        assert history.store(1, 2, "v", frozenset()) == 2  # slots 1-2
        # Idempotent re-store materializes nothing new.
        assert history.store(1, 2, "v", frozenset()) == 0
        assert history.store(1, 3, "v", frozenset()) == 1  # slot 3

    def test_gc_below_removes_only_strictly_older_timestamps(self):
        history = History()
        history.store(1, 3, "a", frozenset())
        history.store(2, 2, "b", frozenset())
        history.store(3, 1, "c", frozenset())
        assert history.gc_below(3) == 5  # ts=1 (3 cells) + ts=2 (2 cells)
        assert history.snapshot().get(1, 1) == INITIAL_ENTRY
        assert history.snapshot().get(2, 1) == INITIAL_ENTRY
        assert history.snapshot().get(3, 1).pair == Pair(3, "c")
        assert history.snapshot().max_timestamp() == 3
        assert history.gc_below(3) == 0


class _SinkServer(StorageServer):
    """A server whose outgoing messages land in a list (no network)."""

    def __init__(self, pid, bounded_history=True):
        super().__init__(pid, bounded_history=bounded_history)
        self.outbox = []

    def send(self, dst, payload):
        self.outbox.append((dst, payload))


def _wr(ts, rnd, value, key=0):
    return WR(ts, value, frozenset(), rnd, key)


class TestEvidenceRules:
    def test_round2_proves_round1_quorum_acked(self):
        """Rule (i): a rnd>=2 wr at ts means round 1 at ts was acked by
        a full quorum — everything strictly below ts is superseded."""
        server = _SinkServer(1)
        server.handle_write("w1", _wr(1, 1, "a"))
        server.handle_write("w2", _wr(2, 1, "b"))
        assert server.gc_removed == 0
        server.handle_write("w2", _wr(2, 2, "b"))
        assert server.histories[0].snapshot().get(1, 1) == INITIAL_ENTRY
        assert server.histories[0].snapshot().get(2, 1).pair == Pair(2, "b")
        assert server.gc_removed == 1
        assert server.history_cells == len(server.histories[0]._cells)

    def test_sequential_client_moving_on_proves_previous_round(self):
        """Rule (ii): clients block on quorum acks between rounds, so a
        *different* wr from the same source proves its previous wr's
        round completed at a quorum."""
        server = _SinkServer(1)
        server.handle_write("w", _wr(1, 1, "a"))
        server.handle_write("w", _wr(2, 1, "b"))   # proves ts=1 acked
        server.handle_write("w", _wr(3, 1, "c"))   # proves ts=2 acked
        # Stable mark is 2: ts=1 is superseded and dropped; ts=2 (the
        # newest *proven* state) and ts=3 are retained.
        assert server.histories[0].snapshot().get(1, 1) == INITIAL_ENTRY
        assert server.histories[0].snapshot().get(2, 1).pair == Pair(2, "b")
        assert server.histories[0].snapshot().get(3, 1).pair == Pair(3, "c")
        assert server.gc_removed == 1

    def test_same_ts_writeback_reuse_is_not_evidence(self):
        """A reader re-sending the *same* (ts, rnd) write-back (two
        reads confirming the same state) proves nothing new and must
        not advance the stable mark past its own cells."""
        server = _SinkServer(1)
        server.handle_write("reader1", _wr(4, 2, "v"))
        assert server.histories[0].stable_ts == 4          # rule (i)
        cells_after_first = server.history_cells
        server.handle_write("reader1", _wr(4, 2, "v"))
        assert server.histories[0].stable_ts == 4
        assert server.history_cells == cells_after_first
        assert server.histories[0].snapshot().get(4, 2).pair == Pair(4, "v")
        # Both write-backs were acked regardless.
        acks = [p for _, p in server.outbox if isinstance(p, WrAck)]
        assert len(acks) == 2

    def test_late_straggler_below_stable_never_rematerializes(self):
        """A wr below the stable mark is stored (acks must not depend
        on GC state) and collected again in the same delivery, so
        superseded cells never creep back."""
        server = _SinkServer(1)
        server.handle_write("w2", _wr(5, 2, "new"))
        assert server.histories[0].stable_ts == 5
        cells = server.history_cells
        server.handle_write("w1", _wr(3, 1, "old"))
        assert server.histories[0].snapshot().get(3, 1) == INITIAL_ENTRY
        assert server.history_cells == cells
        assert server.gc_removed == 1             # the late cell itself
        assert any(
            isinstance(p, WrAck) and p.ts == 3 for _, p in server.outbox
        )

    def test_keys_are_collected_independently(self):
        server = _SinkServer(1)
        server.handle_write("w", _wr(1, 1, "a", key="x"))
        server.handle_write("w", _wr(2, 2, "b", key="x"))
        server.handle_write("w", _wr(1, 1, "a", key="y"))
        assert server.history_for("x").snapshot().get(1, 1) == INITIAL_ENTRY
        assert server.history_for("y").snapshot().get(1, 1).pair == Pair(1, "a")

    def test_unbounded_server_never_collects(self):
        server = _SinkServer(1, bounded_history=False)
        server.handle_write("w", _wr(1, 1, "a"))
        server.handle_write("w", _wr(2, 2, "b"))
        assert server.gc_removed == 0
        assert server.histories[0].snapshot().get(1, 1).pair == Pair(1, "a")
        assert server.max_history_cells == server.history_cells == 3


class TestEndToEndInvisibility:
    def test_concurrent_discovery_rounds_stay_bit_identical(self):
        """Multi-writer runs interleave rnd=0 discovery reads with
        write rounds; GC must not disturb either (discovery reads the
        stable timestamp, which GC always keeps)."""
        spec = ScenarioSpec(
            "rqs-storage", rqs="example6", readers=3, n_writers=3,
            n_keys=4, workload=(RandomMix(24, 30, horizon=120.0),), seed=17,
        )
        plain = run(spec)
        bounded = run(spec.with_(params={"bounded_history": True}))
        assert {w.process for w in plain.writes} == {
            "writer", "writer2", "writer3"
        }
        assert [
            (r.kind, r.process, r.invoked_at, r.completed_at,
             repr(r.result), r.key)
            for r in plain.records
        ] == [
            (r.kind, r.process, r.invoked_at, r.completed_at,
             repr(r.result), r.key)
            for r in bounded.records
        ]
        assert (
            plain.adapter.network.sent_count
            == bounded.adapter.network.sent_count
        )
        stats = bounded.server_history
        assert stats["bounded_history"] is True
        assert stats["gc_removed_cells"] > 0
        assert (
            stats["retained_cells"]
            < plain.server_history["retained_cells"]
        )

    def test_isolated_server_rejoining_responders(self):
        """A server partitioned away and healed back (the closest thing
        to a crashed server rejoining — crashes are permanent here)
        receives the missed writes as stale stragglers; its state must
        reconverge without resurrecting superseded cells."""
        base = SPECS["rqs-storage-randommix-seed3"].with_(
            faults=FaultPlan(partitions=(
                Partition(
                    left=frozenset({5}),
                    right=frozenset(
                        {1, 2, 3, 4, 6, 7, 8, "writer",
                         "reader1", "reader2"}
                    ),
                    after=5.0, until=30.0,
                ),
            )),
        )
        plain = run(base)
        bounded = run(base.with_(params={"bounded_history": True}))
        assert plain.fingerprint() == bounded.fingerprint()
        assert plain.atomicity.atomic and bounded.atomicity.atomic
        stats = bounded.server_history
        assert stats["gc_removed_cells"] > 0
        rejoined = bounded.adapter.servers[5]
        # The healed server caught up past the pre-partition state and
        # holds no more cells than its own high-water mark.
        assert rejoined.histories[0].snapshot().max_timestamp() > 0
        assert rejoined.history_cells <= rejoined.max_history_cells

    @pytest.mark.parametrize("name", sorted(
        n for n in SPECS if n.startswith("rqs-storage")
    ))
    def test_bounded_history_keeps_the_golden_fingerprints(self, name):
        """The pre-keyed goldens, re-run with GC on: byte-identical."""
        spec = SPECS[name].with_(params={"bounded_history": True})
        result = run(spec)
        assert result.fingerprint() == GOLDEN_FINGERPRINTS[name]
        assert result.server_history["bounded_history"] is True

    def test_bounded_runs_report_counters_unbounded_runs_zero(self):
        spec = SPECS["rqs-storage-randommix"]
        plain = run(spec)
        stats = plain.server_history
        assert stats["bounded_history"] is False
        assert stats["gc_removed_cells"] == 0
        assert stats["retained_cells"] == stats["max_retained_cells"]
        bounded = run(spec.with_(params={"bounded_history": True}))
        assert bounded.fingerprint() == plain.fingerprint()
        assert (
            bounded.server_history["retained_cells"]
            < stats["retained_cells"]
        )

    def test_byzantine_servers_are_left_out_of_the_accounting(self):
        """A ``ForgetfulServer`` is built unbounded and rolls its
        history back behind the counters; the report is the benign
        servers' view only (14 cells on the seven bounded servers, not
        14 + the forger's stale 20)."""
        spec = ScenarioSpec(
            "rqs-storage", rqs="example6", readers=2,
            faults=FaultPlan(byzantine=(
                ByzantineRole(1, partial(ForgetfulServer, trigger_time=30.0)),
            )),
            workload=(RandomMix(20, 20, horizon=60.0),),
            params={"bounded_history": True},
        )
        result = run(spec)
        servers = result.adapter.servers
        assert not servers[1].benign and servers[1].history_cells == 20
        stats = result.server_history
        assert stats["retained_cells"] == 14 == sum(
            servers[sid].history_cells for sid in range(2, 9)
        )
        # A Byzantine-free run of the same spec counts all eight.
        honest = run(spec.with_(faults=FaultPlan()))
        assert honest.server_history["retained_cells"] == sum(
            server.history_cells
            for server in honest.adapter.servers.values()
        )


#: Per protocol: the verdict, and messages sent with GC off and on.
LOSSY_VIEW = {
    "rqs-storage": ("atomic", (982, 1046)),
    "rqs-regular": ("regular", (886, 902)),
}


class TestPartialViews:
    @pytest.mark.parametrize("protocol", sorted(LOSSY_VIEW))
    def test_gc_changes_a_lossy_view_execution_not_its_verdict(
        self, protocol
    ):
        """Readers whose replies from servers 1-3 are lost see only part
        of the system: with GC on, a read can no longer confirm an older
        pair whose cells the servers collected, and takes another round.
        Same verdict, different execution."""
        verdict, sent = LOSSY_VIEW[protocol]
        spec = cell_spec(protocol, 1, 2, "lossy-view")
        plain = run(spec)
        bounded = run(spec.with_(params={"bounded_history": True}))
        assert plain.atomicity.verdict == bounded.atomicity.verdict == verdict
        assert (
            plain.adapter.network.sent_count,
            bounded.adapter.network.sent_count,
        ) == sent
        if protocol == "rqs-storage":
            assert (plain.events_processed, bounded.events_processed) == (
                957, 1021
            )
            first = [
                [r.rounds for r in result.reads if r.process == "reader2"][0]
                for result in (plain, bounded)
            ]
            assert first == [4, 5]
