"""Unit tests for writer-side details of Figure 5."""

import pytest

from repro.core.constructions import threshold_rqs
from repro.scenarios import (
    Crash,
    FaultPlan,
    Hold,
    ScenarioSpec,
    Write,
    run,
)
from repro.storage.abd import SlotRead
from repro.storage.batching import ReadBatch
from repro.storage.messages import RD, WR


def write_only(rqs, *values, faults=FaultPlan()):
    """Run back-to-back writes of ``values`` on a reader-less
    deployment, logging every message (FULL)."""
    return run(ScenarioSpec(
        "rqs-storage", rqs=rqs, readers=0, faults=faults,
        workload=tuple(Write(0.0, value) for value in values),
        trace_level="full",
    ))


def test_round2_carries_round1_class2_quorums():
    """Lines 4-5: QC'2 collects the class-2 quorums that fully acked
    round 1, and the round-2 wr message carries exactly them."""
    rqs = threshold_rqs(8, 3, 1, 1, 2)
    result = write_only(
        rqs, "v",                          # forces a 2-round write
        faults=FaultPlan(crashes=(Crash(1, 0.0), Crash(2, 0.0))),
    )
    assert result.write().rounds == 2
    round2 = [
        m.payload
        for m in result.adapter.network.log
        if isinstance(m.payload, WR) and m.payload.rnd == 2
    ]
    assert round2
    carried = round2[0].qc2_ids
    live = frozenset(range(3, 9))
    assert carried == frozenset(
        q2 for q2 in rqs.qc2 if q2 <= live
    )
    assert all(q2 in set(rqs.qc2) for q2 in carried)


def test_round1_and_round3_carry_no_quorum_ids():
    rqs = threshold_rqs(8, 3, 1, 1, 2)
    result = write_only(
        rqs, "v",                          # 3-round write
        faults=FaultPlan(crashes=[Crash(sid, 0.0) for sid in (1, 2, 3)]),
    )
    assert result.write().rounds == 3
    for message in result.adapter.network.log:
        payload = message.payload
        if isinstance(payload, WR) and payload.rnd in (1, 3):
            assert payload.qc2_ids == frozenset()


def test_timestamps_strictly_increase_across_writes():
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    result = write_only(rqs, "a", "b", "c")
    assert [write.ts for write in result.writes] == [1, 2, 3]


def test_writer_waits_out_the_timer_even_with_fast_acks():
    """Figure 5 line 12: the round waits for the quorum AND the 2Δ
    timer, so a 1-round write completes at exactly 2Δ."""
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    record = write_only(rqs, "v").write()
    assert record.completed_at - record.invoked_at == 2.0


def test_stale_round1_acks_do_not_complete_round2():
    """Round-2 completion requires acks from a quorum *of QC'2*, not
    just any quorum of round-2 acks."""
    rqs = threshold_rqs(8, 3, 1, 1, 2)
    # Round 1: servers 1-2 never ack (held), so QC'2 = {{3..8}} (the
    # only class-2 quorum inside the responders).  Round 2: server 3's
    # ack is held, so the writer gets a *plain* quorum {4..8} of round-2
    # acks but no quorum from QC'2 -> it must run round 3.
    result = write_only(
        rqs, "v",
        faults=FaultPlan(asynchrony=(
            Hold(src=(1, 2), dst=("writer",)),
            Hold(
                src=(3,),
                dst=("writer",),
                payload=lambda p: getattr(p, "rnd", 0) == 2,
            ),
        )),
    )
    assert result.write().rounds == 3


@pytest.mark.parametrize("protocol, rqs", [
    ("rqs-storage", "example6"), ("abd", None),
])
def test_a_multi_writer_write_discovers_through_one_batched_collect(
    protocol, rqs
):
    """Each family has one discovery collect: an unbatched multi-writer
    write sends every server one ``ReadBatch`` of its key with
    ``rnd = 0``, and no unbatched read message."""
    result = run(ScenarioSpec(
        protocol, rqs=rqs, readers=0, n_writers=2,
        workload=(Write(0.0, "v", key=3),), trace_level="full",
    ))
    sent = [m for m in result.adapter.network.log if m.src == "writer"]
    collects = [m for m in sent if isinstance(m.payload, ReadBatch)]
    assert [m.dst for m in collects] == list(result.adapter.servers)
    assert {(m.payload.rnd, m.payload.keys) for m in collects} == {(0, (3,))}
    assert not [m for m in sent if isinstance(m.payload, (RD, SlotRead))]
    assert result.write().rounds == 2
