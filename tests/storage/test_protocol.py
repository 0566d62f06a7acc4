"""End-to-end tests for the RQS storage protocol (Figures 5-7)."""

from functools import partial

import pytest

from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Hold,
    RandomMix,
    Read,
    ScenarioSpec,
    Write,
    run,
)
from repro.storage.history import BOTTOM
from repro.storage.server import FabricatingServer, SilentServer

EXAMPLE6 = "threshold:8,3,1,1,2"
FABRICATING = ByzantineRole(
    4, partial(FabricatingServer, forged_ts=999, forged_value="EVIL")
)


def storage(rqs, *workload, readers=1, **spec_fields):
    return run(ScenarioSpec(
        "rqs-storage", rqs=rqs, readers=readers, workload=workload,
        **spec_fields,
    ))


class TestBestCase:
    def test_initial_read_returns_bottom_in_one_round(self):
        record = storage("pbft:1", Read(0.0)).read()
        assert record.result is BOTTOM and record.rounds == 1

    def test_write_then_read_single_round(self):
        result = storage("pbft:1", Write(0.0, "hello"), Read(10.0))
        read = result.read()
        assert result.write().rounds == 1
        assert (read.result, read.rounds) == ("hello", 1)

    def test_sequential_writes_monotone_timestamps(self):
        result = storage(
            "pbft:1",
            *(Write(0.0, value) for value in ("a", "b", "c")),
            Read(20.0),
        )
        assert result.read().result == "c"

    def test_two_readers_agree(self):
        result = storage(
            "pbft:1", Write(0.0, "x"), Read(10.0, reader=0),
            Read(20.0, reader=1), readers=2,
        )
        assert [read.result for read in result.reads] == ["x", "x"]

    def test_general_adversary_best_case(self):
        result = storage("example7", Write(0.0, 42), Read(10.0))
        write, read = result.write(), result.read()
        assert write.rounds == 1 and read.rounds == 1 and read.result == 42


class TestGracefulDegradation:
    def test_write_rounds_by_class(self):
        for crashes, expected in ((1, 1), (2, 2), (3, 3)):
            result = storage(
                EXAMPLE6, Write(0.0, "v"),
                faults=FaultPlan(crashes=[
                    Crash(sid, 0.0) for sid in range(1, crashes + 1)
                ]),
            )
            assert result.write().rounds == expected

    def test_read_rounds_by_class_after_partial_write(self):
        for extra_crashes, expected in ((0, 1), (2, 2), (3, 3)):
            result = storage(
                EXAMPLE6, Write(0.0, "v"), Read(20.0),
                faults=FaultPlan(
                    crashes=[
                        Crash(sid, 10.0)
                        for sid in range(2, 2 + extra_crashes)
                    ],
                    asynchrony=(Hold(src=("writer",), dst=(1,)),),
                ),
            )
            assert result.write().rounds == 1
            read = result.read()
            assert (read.result, read.rounds) == ("v", expected)

    def test_wait_freedom_with_max_crashes(self):
        result = storage(
            EXAMPLE6, Write(0.0, "a"), Write(0.0, "b"), Read(30.0),
            faults=FaultPlan(crashes=[Crash(sid, 0.0) for sid in (1, 2, 3)]),
        )
        assert all(write.complete for write in result.writes)
        assert result.read().result == "b"

    def test_blocks_without_quorum(self):
        result = storage(
            "threshold:5,1,1,0,1", Write(0.0, "v"),
            faults=FaultPlan(                      # > t failures
                crashes=(Crash(1, 0.0), Crash(2, 0.0))
            ),
        )
        assert not result.write().complete
        assert result.blocked == ("writer-workload",)


class TestByzantineResilience:
    def test_fabricating_server_cannot_forge_values(self):
        result = storage(
            "pbft:1", Write(0.0, "good"), Read(10.0),
            faults=FaultPlan(byzantine=(FABRICATING,)),
        )
        assert result.read().result == "good"

    def test_fabricating_server_initial_read(self):
        result = storage(
            "pbft:1", Read(0.0), faults=FaultPlan(byzantine=(FABRICATING,))
        )
        assert result.read().result is BOTTOM

    def test_silent_server_tolerated(self):
        result = storage(
            "pbft:1", Write(0.0, "v"), Read(10.0),
            faults=FaultPlan(byzantine=(ByzantineRole(1, SilentServer),)),
        )
        write, read = result.write(), result.read()
        assert read.result == "v"
        assert write.rounds <= 2 and read.rounds <= 2

    def test_history_is_atomic_under_byzantine_server(self):
        result = storage(
            "threshold:7,2,2,0,2", RandomMix(5, 8, horizon=50.0),
            readers=2, seed=3,
            faults=FaultPlan(byzantine=(ByzantineRole(
                7, partial(FabricatingServer, forged_ts=50, forged_value="EVIL")
            ),)),
        )
        assert result.atomicity.atomic


class TestContention:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixes_atomic(self, seed):
        result = storage(
            "threshold:5,1,1,0,1", RandomMix(6, 9, horizon=40.0),
            readers=3, seed=seed,
        )
        report = result.atomicity
        assert report.atomic, report.violations
        assert len(result.completed) == 15

    def test_reader_concurrent_with_write(self):
        result = storage(
            "pbft:1", Write(0.0, "v1"), Read(1.0)  # overlaps the write
        )
        write, read = result.write(), result.read()
        assert read.invoked_at < write.completed_at
        assert result.atomicity.atomic

    def test_crash_mid_run_stays_atomic(self):
        result = storage(
            EXAMPLE6, RandomMix(5, 6, horizon=40.0), readers=2, seed=11,
            faults=FaultPlan(crashes=(Crash(5, 15.0),)),
        )
        assert result.atomicity.atomic
