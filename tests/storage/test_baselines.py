"""Tests for the ABD, fast-ABD and naive baselines."""

import pytest

from repro.analysis.atomicity import check_swmr_atomicity
from repro.storage.abd import ABD, FASTABD, NAIVE, RegisterSystem


class TestAbd:
    def test_reads_always_two_rounds(self):
        system = RegisterSystem(ABD, n=5, n_readers=1)
        system.write("a")
        for _ in range(3):
            record = system.read()
            assert record.rounds == 2 and record.result == "a"

    def test_tolerates_minority_crashes(self):
        system = RegisterSystem(
            ABD, n=5, n_readers=1, crash_times={1: 0.0, 2: 0.0}
        )
        system.write("v")
        assert system.read().result == "v"

    def test_blocks_on_majority_crash(self):
        system = RegisterSystem(
            ABD, n=5, n_readers=1, crash_times={1: 0.0, 2: 0.0, 3: 0.0}
        )
        with pytest.raises(TimeoutError):
            system.write("v")

    def test_atomic_history(self):
        system = RegisterSystem(ABD, n=5, n_readers=2)
        system.write("a")
        system.read(0)
        system.write("b")
        system.read(1)
        assert check_swmr_atomicity(system.trace.records).atomic


class TestFastAbd:
    def test_single_round_best_case(self):
        system = RegisterSystem(FASTABD, n_readers=1)
        assert system.write("v").rounds == 1
        read = system.read()
        assert (read.result, read.rounds) == ("v", 1)

    def test_two_round_fallback(self):
        system = RegisterSystem(
            FASTABD, n_readers=1, crash_times={4: 0.0, 5: 0.0}
        )
        assert system.write("v").rounds == 2
        assert system.read().result == "v"

    def test_atomic_with_incomplete_write(self):
        from repro.sim.network import hold_rule

        system = RegisterSystem(
            FASTABD, n_readers=2,
            rules=[hold_rule(src={"writer"}, dst={1, 2, 4, 5})],
        )
        system.sim.spawn(system.writer.write("v"), "incomplete write")
        task = system.sim.spawn(system.readers[0].read(), "r1")
        system.sim.run(until=30.0)
        assert task.done()
        report = check_swmr_atomicity(system.trace.records)
        assert report.atomic


class TestNaive:
    def test_works_in_failure_free_runs(self):
        system = RegisterSystem(NAIVE, n_readers=1)
        write_task = system.sim.spawn(system.writer.write("v"), "w")
        system.sim.run(until=5.0)
        read_task = system.sim.spawn(system.readers[0].read(), "r")
        system.sim.run(until=10.0)
        assert write_task.result.rounds == 1
        assert read_task.result.result == "v"

    def test_violates_atomicity_under_figure1_schedule(self):
        from repro.experiments.fig1 import run_naive

        outcome = run_naive()
        assert not outcome.report.atomic
