"""Work-count regression for the Figure 7 reader — no wall clock.

A read used to re-walk every collected snapshot three ways per
evaluation (``pairs()``, ``max_timestamp()``, one ``HistoryView.get``
per responder per candidate slot) and ``invalid`` tested lines 3-4 on
all 93 quorums of example6 through two helper calls each.  Now an
``rd_ack`` is filed with one walk of its snapshot's cells, the
predicates never go back to a snapshot, and an uncontended ``invalid``
is one mask test: every responder holds the pair in slot 1 and every
quorum is basic (a flag the index computes once, over the 56 minimal
quorums of the 93), so no quorum is looked at per call, line 5 is never
reached and ``QC'2`` is never listed.
"""

import sys
from collections import Counter

from repro.core import metrics
from repro.core import rqs as rqs_module
from repro.core.constructions import threshold_rqs
from repro.core.rqs import QuorumIndex
from repro.experiments import stress
from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import run, run_grid
from repro.storage import history, predicates
from repro.storage.predicates import ReadState
from tests.counting import counted, profiled

SPEC = keyed_mix_spec(
    "rqs-storage", 4, writes=80, reads=120, readers=4, seed=3,
    trace_level="metrics", max_ops=200, params={"bounded_history": True},
)


def test_an_ack_is_walked_once_and_an_uncontended_read_stays_minimal(
    monkeypatch,
):
    looked_at = Counter()
    real_minimal = QuorumIndex.minimal
    monkeypatch.setattr(QuorumIndex, "minimal", counted(
        QuorumIndex, "minimal", looked_at,
        # The same antichain, counting the masks each caller is handed.
        lambda index, cls=3: {
            (sys._getframe(2).f_code.co_name, cls): len(real_minimal(index, cls))
        },
    ))

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call":
            if code.co_filename == predicates.__file__:
                return code.co_name
            if (code.co_filename == history.__file__
                    and frame.f_back.f_code.co_filename == predicates.__file__):
                return "history." + code.co_name
            if code.co_name == "responding":
                return "responding from " + frame.f_back.f_code.co_name
        elif (event == "c_call" and code.co_filename == predicates.__file__
              and isinstance(getattr(arg, "__self__", None), dict)
              and any(view.cells is arg.__self__
                      for view in frame.f_locals["self"].view.values())):
            # A dict method on some collected snapshot's cells.
            return f"cells.{arg.__name__} in {code.co_name}"

    result, calls = profiled(lambda: run(SPEC), count)

    index = result.adapter.rqs.index
    assert len(index.masks[3]) == 93 and len(real_minimal(index)) == 56
    assert result.ops_completed() == 200
    # Every read's regular part took one round.
    reads = calls["freeze_round1"]
    assert reads == calls["candidates"] > 100
    acks = calls["record_ack"]
    assert acks == 8 * reads
    # One walk of the arriving snapshot, nothing else ever touches one.
    assert calls["cells.items in record_ack"] == acks
    assert [name for name in calls if name.startswith("cells.")] == [
        "cells.items in record_ack"
    ]
    assert [name for name in calls if name.startswith("history.")] == []
    # Every responder holds the pair in slot 1 and every quorum is
    # basic, so line 6 is one mask test: the minimal quorums are walked
    # at most once per system, for its flag (not at all when the shared
    # example6 computed it earlier), and line 5, the walk of Responded
    # and the listing of QC'2 are for contended reads — none here.
    assert calls["invalid"] >= reads
    assert set(looked_at) <= {("all_basic", 3)}
    assert looked_at["all_basic", 3] in (0, 56)
    assert calls["_valid3"] == 0 and calls["responding from invalid"] == 0
    assert calls["qc2_responded"] == calls["_qc2_masks"] == 0
    assert [name for name in calls if name.startswith("responding")] == []
    assert calls["_strip"] == 0


def test_a_reading_system_keeps_nothing_per_subset():
    """``TestQuorumIndex``'s fact with the reader's tables built: an
    availability sweep over all 2^8 alive-sets adds no entry — the
    antichain of minimal quorums is per class, not per subset."""
    rqs = threshold_rqs(8, 3, 1, 1, 2)
    index = rqs.index
    state = ReadState(rqs)
    for server in rqs.servers:
        state.record_ack(server, 1, history.History().snapshot())
    state.freeze_round1()
    assert state.candidates() == [history.INITIAL_PAIR]

    def entries():
        return {
            name: len(getattr(index, name)) for name in index.__slots__
            if name.startswith("_") and isinstance(getattr(index, name), dict)
        }

    before = entries()
    assert before["_minimal"] == 1 and before["_basic"] > 0
    for cls in (1, 2, 3):
        metrics.failure_probability(rqs, 0.1, cls)
    assert entries() == before


def test_bcd2_walks_qc2_as_masks():
    """A contended read whose plan reaches ``BCD(c, 2, R)`` (an E6
    stress cell: a fabricating server and a crash) walks ``QC'2`` as
    the masks round 1 left: no quorum id is turned back into a mask
    inside ``bcd2`` (150 ``QuorumIndex.mask`` calls on this cell
    before)."""
    def count(frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        if code.co_filename == predicates.__file__ and code.co_name == "bcd2":
            return "bcd2"
        if code.co_filename == rqs_module.__file__ and code.co_name == "mask":
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):   # comprehensions
                caller = caller.f_back
            return "mask in " + caller.f_code.co_name

    sweep, calls = profiled(
        lambda: run_grid(stress.storage_stress_grid([5000])), count
    )
    assert sweep.verdict_counts() == {"wait-free atomic": 1}
    assert calls["bcd2"] > 0
    assert calls["mask in bcd2"] == 0
