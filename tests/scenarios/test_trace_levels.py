"""What each trace level keeps, and that keeping it changes nothing else.

``RECORDS`` (a scenario's default) keeps every operation record and no
message log; ``FULL`` adds the log, one entry per ``send`` /
``send_all`` call.  Nothing a verdict or a fingerprint reads comes from
the log, so the two levels must be one execution: over every golden
spec (the fingerprint goldens, the digest goldens and the consensus
goldens) the fingerprint, the event count, the four message counters,
the blocked tasks and the verdict agree, and the ``RECORDS`` run logged
no send.  Below ``FULL`` the log refuses to be read — an empty log would
let a check over it pass on messages that were never kept.  Of the
paper's exhibit grids only theorem3 asks for the log (its claim is about
the replies ``rd2`` receives), so no other grid keeps a send entry.
"""

import pytest

from perf.workloads import paper_exhibits
from repro.errors import SimulationError
from repro.scenarios import TraceLevel, run, run_grid
from tests.consensus.test_consensus_goldens import SPECS as CONSENSUS_SPECS
from tests.scenarios.test_golden_fingerprints import DIGEST_SPECS, SPECS

GOLDEN_SPECS = {**SPECS, **DIGEST_SPECS, **CONSENSUS_SPECS}


def test_the_golden_specs_are_all_here():
    assert len(GOLDEN_SPECS) == (
        len(SPECS) + len(DIGEST_SPECS) + len(CONSENSUS_SPECS)
    )


def observed(result):
    """Everything a run reports that is not its message log."""
    network = result.adapter.network
    return {
        "fingerprint": result.fingerprint(),
        "events": result.events_processed,
        "counters": (network.sent_count, network.delivered_count,
                     network.held_count, network.dropped_count),
        "blocked": result.blocked,
        "verdict": (result.atomicity if result.adapter.kind == "storage"
                    else result.consensus),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_records_and_full_are_one_execution(name):
    spec = GOLDEN_SPECS[name]
    records = run(spec.with_(trace_level="records"))
    full = run(spec.with_(trace_level="full"))
    assert observed(records) == observed(full)
    assert records.adapter.network._sends == []
    assert len(full.adapter.network._sends) > 0


def test_records_is_the_default():
    (spec, *_) = SPECS.values()
    assert spec.trace_level is TraceLevel.RECORDS
    assert not run(spec).streamed


@pytest.mark.parametrize("level", ["metrics", "records"])
def test_the_log_refuses_below_full(level):
    spec = SPECS["abd"].with_(trace_level=level)
    result = run(spec)
    assert result.adapter.network.sent_count > 0
    with pytest.raises(SimulationError, match="FULL"):
        result.adapter.network.log


def test_only_theorem3_logs_sends_in_the_exhibit_pass():
    logged = {}
    for grid in paper_exhibits(5, 0.1):
        sweep = run_grid(grid)
        logged[grid.name] = sum(
            len(cell.result.adapter.network._sends)
            for cell in sweep.cells if cell.result is not None
        )
    assert len(logged) == 13
    assert logged.pop("theorem3") > 0
    assert set(logged.values()) == {0}
