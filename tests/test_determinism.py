"""Whole-system determinism: identical configurations yield identical
executions — the reproducibility guarantee the README promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import (
    Crash,
    FaultPlan,
    Propose,
    RandomMix,
    ScenarioSpec,
    run,
)


def storage_fingerprint(seed):
    result = run(ScenarioSpec(
        "rqs-storage", rqs="example6", readers=3,
        faults=FaultPlan(crashes=(Crash(4, 20.0),)),
        workload=(RandomMix(5, 8, horizon=50.0),), seed=seed,
        trace_level="full",
    ))
    return tuple(
        (r.kind, r.process, r.invoked_at, r.completed_at, repr(r.result), r.rounds)
        for r in result.records
    ) + (len(result.adapter.network.log),)


def consensus_fingerprint():
    result = run(ScenarioSpec(
        "rqs-consensus", rqs="example6", proposers=2,
        workload=(Propose(0.0, "A", proposer=0),
                  Propose(0.0, "B", proposer=1)),
        horizon=300.0, trace_level="full",
    ))
    return (
        tuple(sorted(result.learned.items())),
        len(result.adapter.network.log),
        result.events_processed,
    )


def test_storage_runs_are_bitwise_repeatable():
    assert storage_fingerprint(7) == storage_fingerprint(7)


def test_storage_runs_differ_across_seeds():
    assert storage_fingerprint(1) != storage_fingerprint(2)


def test_consensus_runs_are_bitwise_repeatable():
    assert consensus_fingerprint() == consensus_fingerprint()


_STRING_ID_VIEW_CHANGE = """
import hashlib

from repro.consensus.messages import Decision, Update
from repro.scenarios import FaultPlan, Hold, Propose, ScenarioSpec, run


def late(payload):
    return (isinstance(payload, Update) and payload.step >= 2) or (
        isinstance(payload, Decision)
    )


result = run(ScenarioSpec(
    "rqs-consensus", rqs="example7", proposers=2, learners=1,
    faults=FaultPlan(asynchrony=(Hold(payload=late, until=60.0),)),
    workload=(Propose(0.0, 1, proposer=0), Propose(0.0, 2, proposer=1)),
    horizon=200.0, trace_level="full",
))
log = tuple(
    (m.send_time, repr(m.src), repr(m.dst), type(m.payload).__name__)
    for m in result.adapter.network.log
)
print(len(log), hashlib.sha256(repr(log).encode()).hexdigest())
"""


@pytest.mark.xfail(strict=True, reason=(
    "Acceptor._handle_new_view sends its sign_req to next(iter(quorums)) "
    "of a set of frozensets, whose order follows PYTHONHASHSEED for the "
    "string server ids of example7 (seeds 0 / 1 / 2 send 1615 / 1615 / "
    "1610 messages); a fix moves the int-id consensus golden logs"
))
def test_a_string_id_view_change_does_not_depend_on_the_hash_seed():
    """Two proposers contend and every update2/3 and decision is held
    until t = 60, so both proposers run view changes over example7."""
    root = Path(__file__).resolve().parents[1]
    logs = [
        subprocess.run(
            [sys.executable, "-c", _STRING_ID_VIEW_CHANGE],
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(root / "src")},
            capture_output=True, check=True, text=True, timeout=120,
        ).stdout
        for seed in ("0", "1")
    ]
    assert logs[0] == logs[1]
