"""Differential oracles for the one-pass Figure 7 predicates.

:class:`ReadState` files every arriving snapshot once into a per-read
table and answers lines 1-9 from its masks.  Two independent statements
of the same predicates check it:

* :class:`NaiveReadState` — Figure 7 written server by server: every
  predicate walks the quorum families and probes each server's
  snapshot, no index, no table;
* :class:`ReferenceReadState` — the previous ``ReadState`` kept
  verbatim: holder masks rebuilt from the views on demand and dropped
  by every ack, ``invalid`` walking all of ``Responded``.

All three must agree on every predicate **after every single ack** of
generated scripts — random per-server histories, servers that never
answer, forged quorum-id sets, cells filed under a foreign timestamp,
re-acks with a *smaller* snapshot (a holder, a listed id, an observed
pair disappear), timestamps above ``highest_ts`` — on sound systems and
on one whose quorums are not all basic.  Seeded mutants of the table,
of the minimal-quorum pass, of the line-6 short-cut and of the frozen
``QC'2`` are each killed by a named script.
"""

import os
import subprocess
import sys
from collections import Counter
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constructions import threshold_rqs
from repro.core.rqs import RefinedQuorumSystem
from repro.scenarios import resolve_rqs
from repro.storage.batching import ReadBatchAck
from repro.storage.history import (
    BOTTOM,
    EMPTY_VIEW,
    INITIAL_PAIR,
    Entry,
    History,
    HistoryView,
    Pair,
)
from repro.storage.predicates import ReadState
from repro.storage.reader import StorageReader
from tests.counting import counted
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant

ServerId = Hashable
QuorumId = FrozenSet[ServerId]
_Slot = Tuple[int, Dict[int, int]]


class ReferenceReadState:
    """``ReadState`` as it stood before the per-ack table (PR 13's
    holder masks, rebuilt lazily from the views and discarded by every
    ack) — kept verbatim, ties in ``observed_pairs`` in set order and
    all."""

    def __init__(self, rqs: RefinedQuorumSystem):
        self.rqs = rqs
        self._ix = rqs.index
        self.view: Dict[ServerId, HistoryView] = {}
        self.qc2_responded: Tuple[QuorumId, ...] = ()   # QC'2 (line 30-31)
        self.highest_ts: int = 0                        # (line 29)
        self._responded = 0                   # mask of ``view``'s servers
        self._round_acks: Dict[int, int] = {}           # rnd -> ack mask
        # Derived from the current views; dropped by every ack.
        self._slots: Dict[Tuple[Pair, int], "_Slot"] = {}
        self._pairs: Optional[List[Pair]] = None
        self._quorums: Optional[Tuple[int, ...]] = None  # Responded, as masks

    # -- state updates ---------------------------------------------------------

    def record_ack(self, server: ServerId, rnd: int, history: HistoryView) -> None:
        """Apply a ``rd_ack`` (Figure 7, lines 50-53).

        Figure 7 collects snapshots of the *servers*: an ack from a
        process outside ``S`` is dropped, so it can neither vouch for a
        pair nor raise ``highest_ts``.
        """
        bit = self._ix.bit.get(server)
        if bit is None:
            return
        self.view[server] = history
        self._responded |= bit
        self._round_acks[rnd] = self._round_acks.get(rnd, 0) | bit
        self._slots.clear()
        self._pairs = None
        self._quorums = None

    def _responded_masks(self) -> Tuple[int, ...]:
        quorums = self._quorums
        if quorums is None:
            quorums = self._quorums = self._ix.responding(self._responded)
        return quorums

    def round_quorum(self, rnd: int) -> bool:
        """Has some quorum fully answered round ``rnd``?"""
        return self._ix.fits(self._round_acks.get(rnd, 0))

    def freeze_round1(self) -> None:
        """End-of-round-1 bookkeeping (lines 27-32): fix ``highest_ts``
        and record the class-2 quorums that responded in round 1."""
        self.highest_ts = max(
            (view.max_timestamp() for view in self.view.values()), default=0
        )
        round1 = self._ix.members(self._round_acks.get(1, 0))
        self.qc2_responded = self.rqs.responding_quorums(round1, cls=2)

    # -- low-level lookups --------------------------------------------------------

    def _slot(self, c: Pair, rnd: int) -> _Slot:
        """Who reports ``c`` in slot ``rnd`` (ids are carried per entry,
        so that half stays a per-server scan; only ids of class-2
        quorums mean anything to the predicates)."""
        key = (c, rnd)
        slot = self._slots.get(key)
        if slot is None:
            ix = self._ix
            bits = ix.bit
            ts = c.ts
            held = 0
            # Non-responders report INITIAL_ENTRY: ⟨0, ⊥⟩, no ids.
            if c == INITIAL_PAIR:
                held = ix.full & ~self._responded
            listed: Dict[QuorumId, int] = {}
            for server, view in self.view.items():
                entry = view.get(ts, rnd)
                if entry.pair == c:
                    bit = bits[server]
                    held |= bit
                    for quorum_id in entry.sets:
                        listed[quorum_id] = listed.get(quorum_id, 0) | bit
            slot = self._slots[key] = (held, {
                ix.mask(quorum_id): listing
                for quorum_id, listing in listed.items()
                if ix.class_of.get(quorum_id, 3) <= 2
            })
        return slot

    def holders(self, c: Pair, rnd: int) -> int:
        """The servers whose current snapshot reports ``c`` in slot
        ``rnd``, as a mask over ``rqs.index``."""
        return self._slot(c, rnd)[0]

    def observed_pairs(self) -> List[Pair]:
        """All candidate pairs: anything readable from any snapshot."""
        pairs = self._pairs
        if pairs is None:
            seen = set()
            for view in self.view.values():
                seen.update(view.pairs())
            pairs = self._pairs = sorted(seen, key=lambda p: p.ts)
        return pairs

    # -- validity predicates ---------------------------------------------------------

    # Lines 3-5 on masks: the quorum and who reports ``c`` (``invalid``
    # looks the holders up once and walks ``Responded`` with these).
    # Line 3's maximal ``T`` suffices: supersets of basic sets are
    # basic.  Line 5's only ``B`` worth checking for a fixed ``Q2`` is
    # its non-conforming servers: any valid ``B`` covers them, and P3b
    # is anti-monotone in ``B``.

    def _valid1(self, held1: int, quorum: int) -> bool:
        held = held1 & quorum
        return bool(held) and self._ix.is_basic(held)

    @staticmethod
    def _valid2(held2: int, quorum: int) -> bool:
        return bool(held2 & quorum)

    def _valid3(self, listed: Dict[int, int], quorum: int) -> bool:
        ix = self._ix
        qc1 = ix.masks[1]
        if not qc1:
            return False  # P3b needs a class-1 quorum
        # Only a Q2 that some holder lists can have conforming servers,
        # and with none P3b fails (nothing meets the class-1 quorums).
        for q2, listing in listed.items():
            base = q2 & quorum
            conforming = listing & base
            if not conforming:
                continue
            if ix.is_basic(base & ~conforming):
                continue  # B = the non-conforming part must lie in B
            if all(q1 & conforming for q1 in qc1):
                return True
        return False

    def invalid(self, c: Pair) -> bool:
        """Line 6."""
        if c.ts > self.highest_ts:
            return True
        held1, listed = self._slot(c, 1)
        held2 = self.holders(c, 2)
        valid1, valid2, valid3 = self._valid1, self._valid2, self._valid3
        for quorum in self._responded_masks():
            if not (
                valid2(held2, quorum)
                or valid1(held1, quorum)
                or valid3(listed, quorum)
            ):
                return True
        return False

    def safe(self, c: Pair) -> bool:
        """Line 8: a basic subset of servers confirms ``c``.

        ``⟨0, ⊥⟩`` is readable from every snapshot by construction (empty
        cells report the initial entry), so the initial value is safe as
        soon as a basic subset has answered.
        """
        readers = (self.holders(c, 1) | self.holders(c, 2)) & self._responded
        return bool(readers) and self._ix.is_basic(readers)

    def high_cand(self, c: Pair) -> bool:
        """Line 9: every readable pair with a higher timestamp is invalid."""
        for candidate in self.observed_pairs():
            if candidate.ts > c.ts and not self.invalid(candidate):
                return False
        return True

    def candidates(self) -> List[Pair]:
        """Line 33: ``C = {c | safe(c) ∧ highCand(c)}``."""
        return [
            c
            for c in self.observed_pairs()
            if self.safe(c) and self.high_cand(c)
        ]

    # -- best-case detector ------------------------------------------------------------

    def bcd1(self, c: Pair, big_r: int) -> bool:
        """``BCD(c, 1, R)`` (line 1).

        Holds iff there are a class-1 quorum ``Q1`` and a class-``R``
        quorum ``QR`` such that every server of ``Q1 ∩ QR`` reports
        ``⟨c, ·⟩`` in slot ``R`` — and, when ``R = 2``, reports ``QR``
        among its slot-2 quorum ids.  (We allow per-server id sets; the
        paper's single shared ``Set`` is the uncontended special case.)
        """
        ix = self._ix
        held, listed = self._slot(c, big_r)
        if big_r != 2:
            missing = ~held
            return any(
                not meet & missing for meet in ix.class1_meets(big_r)
            )
        for qr, listing in listed.items():
            missing = ~listing
            if any(not meet & missing for meet in ix.meets(1, qr)):
                return True
        return False

    def bcd2(self, c: Pair, big_r: int) -> Tuple[QuorumId, ...]:
        """``BCD(c, 2, R)`` (line 2): the class-2 quorums of ``QC'2`` that
        are "confirmed" through some class-``R`` quorum."""
        ix = self._ix
        missing = ~self.holders(c, big_r)
        return tuple(
            q2
            for q2 in self.qc2_responded
            if any(
                not meet & missing for meet in ix.meets(big_r, ix.mask(q2))
            )
        )

class NaiveReadState:
    """The per-server formulation of the reader predicates."""

    def __init__(self, rqs):
        self.rqs = rqs
        self.view = {}
        self.acked_by_round = {}
        self.qc2_responded = ()
        self.highest_ts = 0
        # The defined tie order of ``observed_pairs``: when a pair was
        # first reported to this read, in any slot (ack order, then cell
        # order).
        self.first_report = {INITIAL_PAIR: -1}

    def record_ack(self, server, rnd, history):
        # Figure 7 collects the snapshots of servers; nobody else's.
        if server not in self.rqs.ground_set:
            return
        self.view[server] = history
        self.acked_by_round.setdefault(rnd, set()).add(server)
        for entry in history.cells.values():
            self.first_report.setdefault(entry.pair, len(self.first_report))

    def responded_quorums(self):
        got = set(self.view)
        return tuple(q for q in self.rqs.quorums if q <= got)

    def round_quorum(self, rnd):
        acked = self.acked_by_round.get(rnd, set())
        return any(q <= acked for q in self.rqs.quorums)

    def freeze_round1(self):
        self.highest_ts = max(
            (view.max_timestamp() for view in self.view.values()), default=0
        )
        round1 = self.acked_by_round.get(1, set())
        self.qc2_responded = tuple(
            q2 for q2 in self.rqs.qc2 if q2 <= round1
        )

    def entry(self, server, ts, rnd):
        return self.view.get(server, EMPTY_VIEW).get(ts, rnd)

    def holders(self, c, rnd):
        return frozenset(
            s for s in self.rqs.ground_set
            if self.entry(s, c.ts, rnd).pair == c
        )

    def read_pred(self, c, server):
        return (
            self.entry(server, c.ts, 1).pair == c
            or self.entry(server, c.ts, 2).pair == c
        )

    def observed_pairs(self):
        seen = set()
        for view in self.view.values():
            seen.update(view.pairs())
        return sorted(seen, key=lambda p: (p.ts, self.first_report[p]))

    def valid1(self, c, quorum):
        holders = {s for s in quorum if self.entry(s, c.ts, 1).pair == c}
        return self.rqs.is_basic(holders) if holders else False

    def valid2(self, c, quorum):
        return any(self.entry(s, c.ts, 2).pair == c for s in quorum)

    def valid3(self, c, quorum):
        for q2 in self.rqs.qc2:
            base = q2 & quorum
            conforming = {
                s
                for s in base
                if self.entry(s, c.ts, 1).pair == c
                and q2 in self.entry(s, c.ts, 1).sets
            }
            b = frozenset(base - conforming)
            if not self.rqs.adversary.contains(b):
                continue
            if self.rqs.p3b(q2, quorum, b):
                return True
        return False

    def fails_lines_3_and_4(self, c):
        """Does some responded quorum need line 5 to vouch for ``c``?"""
        return any(
            not (self.valid1(c, quorum) or self.valid2(c, quorum))
            for quorum in self.responded_quorums()
        )

    def invalid(self, c):
        if c.ts > self.highest_ts:
            return True
        for quorum in self.responded_quorums():
            if not (
                self.valid1(c, quorum)
                or self.valid2(c, quorum)
                or self.valid3(c, quorum)
            ):
                return True
        return False

    def safe(self, c):
        readers = {s for s in self.view if self.read_pred(c, s)}
        return bool(readers) and self.rqs.is_basic(readers)

    def high_cand(self, c):
        for candidate in self.observed_pairs():
            if candidate.ts > c.ts and not self.invalid(candidate):
                return False
        return True

    def candidates(self):
        return [
            c
            for c in self.observed_pairs()
            if self.safe(c) and self.high_cand(c)
        ]

    def bcd1(self, c, big_r):
        for q1 in self.rqs.qc1:
            for qr in self.rqs.class_quorums(big_r):
                intersection = q1 & qr
                if not intersection:
                    continue
                ok = True
                for s in intersection:
                    entry = self.entry(s, c.ts, big_r)
                    if entry.pair != c:
                        ok = False
                        break
                    if big_r == 2 and qr not in entry.sets:
                        ok = False
                        break
                if ok:
                    return True
        return False

    def bcd2(self, c, big_r):
        result = []
        for q2 in self.qc2_responded:
            for qr in self.rqs.class_quorums(big_r):
                intersection = qr & q2
                if not intersection:
                    continue
                if all(
                    self.entry(s, c.ts, big_r).pair == c
                    for s in intersection
                ):
                    result.append(q2)
                    break
        return tuple(result)


#: n = 5, quorums of two or more servers, any two servers possibly
#: Byzantine: its smallest quorums are *not* basic, Properties 1-3 fail.
#: No shortcut of the reader may lean on a property of the system.
UNSOUND = threshold_rqs(5, 3, 2, 0, 1, validate=False)

SYSTEMS = {
    name: resolve_rqs(name)
    for name in ("example6", "example7", "figure3", "section12", "grid-hetero")
}
SYSTEMS["unsound"] = UNSOUND

#: Pairs no generated snapshot needs to contain to be asked about.
EXTRA_PROBES = (INITIAL_PAIR, Pair(1, "a"), Pair(2, "b"), Pair(9, "z"))


class WalkCounter:
    """The real index, counting the walks of ``Responded``."""

    def __init__(self, index):
        self._index = index
        self.walks = Counter()
        self.responding = counted(index, "responding", self.walks)

    def __getattr__(self, name):
        return getattr(self._index, name)


def trio(rqs, cls=ReadState):
    state = cls(rqs)
    state._ix = WalkCounter(rqs.index)
    return state, ReferenceReadState(rqs), NaiveReadState(rqs)


def feed(states, ack):
    for state in states:
        state.record_ack(*ack)


def answers(state):
    """Every predicate of Figure 7, on every pair worth asking about, as
    ``state`` answers it — and whether ``invalid`` walked ``Responded``:
    counted on a :func:`trio`'s subject; on the naive state, whether it
    must (the minimal quorums could not settle lines 3-4)."""
    rqs = state.rqs
    naive = isinstance(state, NaiveReadState)
    walks = Counter() if naive else getattr(state._ix, "walks", Counter())
    observed = state.observed_pairs()
    found = {
        "observed_pairs": observed,
        "highest_ts": state.highest_ts,
        "round_quorum": [state.round_quorum(rnd) for rnd in (1, 2)],
    }
    for c in dict.fromkeys(observed + list(EXTRA_PROBES)):
        held = [state.holders(c, rnd) for rnd in (1, 2, 3)]
        found["holders", c] = [rqs.index.mask(h) for h in held] if naive else held
        found["safe", c] = state.safe(c)
        walked = walks["responding"]
        found["invalid", c] = state.invalid(c)
        found["walked", c] = (
            c.ts <= state.highest_ts and state.fails_lines_3_and_4(c)
        ) if naive else walks["responding"] > walked
        found["bcd", c] = [(state.bcd1(c, r), state.bcd2(c, r)) for r in (1, 2, 3)]
    found["candidates"] = state.candidates()
    return found


def up_to_ties(found):
    """The reference sorts a *set* by timestamp, so pairs sharing one
    come out in hash order: same pairs, same timestamps, no more — and
    it counts no walks."""
    def pairs(listed):
        return [p.ts for p in listed], set(listed), len(set(listed))

    kept = {field: answer for field, answer in found.items()
            if field[0] != "walked"}
    kept["observed_pairs"] = pairs(found["observed_pairs"])
    kept["candidates"] = pairs(found["candidates"])
    return kept


def play(states, step):
    for state in states:
        if step[0] == "ack":
            state.record_ack(*step[1])
        elif step[0] == "freeze":
            state.freeze_round1()
        elif step[0] == "ceiling":
            state.highest_ts = step[1]


def observed(states):
    """What the naive state answers — which the previous ``ReadState``
    matches up to ties."""
    found = answers(states[0])
    for twin in states[1:]:
        assert up_to_ties(answers(twin)) == up_to_ties(found)
    return found


def assert_same_answers(states):
    state, reference, naive = states
    agree((naive, reference), (state,), [("ask",)], play, observed)


def run_script(rqs, acks, cls=ReadState, freeze_after=None, ceiling=None):
    """Feed ``acks`` to all three states, comparing before the first and
    after every one — and after the round-1 freeze that follows the
    ``freeze_after``-th, and the ceiling put over it (candidates above
    it must turn invalid)."""
    steps = [("ask",)] + [("ack", ack) for ack in acks]
    if freeze_after:
        steps[freeze_after + 1:freeze_after + 1] = [("freeze",)] + (
            [] if ceiling is None else [("ceiling", ceiling)]
        )
    state, reference, naive = states = trio(rqs, cls)
    agree((naive, reference), (state,), steps, play, observed)
    return states


# -- generated states --------------------------------------------------------------

CELLS = [(ts, rnd) for ts in (0, 1, 2) for rnd in (1, 2, 3)]


def id_pool(rqs):
    """Quorum ids a slot may list: class-2 quorums (the only ids the
    predicates honour), a quorum that is class 3 only, and a forgery
    that is no quorum at all."""
    class2 = list(rqs.qc2[:: max(1, len(rqs.qc2) // 4)])
    class3_only = [q for q in rqs.quorums if q not in set(rqs.qc2)][:1]
    forged = frozenset(sorted(rqs.ground_set, key=repr)[:2])
    return class2 + class3_only + [forged]


@st.composite
def snapshots(draw, ids):
    """One server's history cells.  A cell's pair usually carries the
    cell's own timestamp; a Byzantine server may file anything."""
    cells = {}
    for ts, rnd in draw(st.lists(st.sampled_from(CELLS), max_size=6,
                                 unique=True)):
        value = draw(st.sampled_from(["a", "b"] if ts else [BOTTOM, "a"]))
        pair_ts = draw(st.sampled_from([ts] * 7 + [7]))
        sets = draw(st.frozensets(st.sampled_from(ids), max_size=3))
        cells[(ts, rnd)] = Entry(Pair(pair_ts, value), sets)
    return cells


@st.composite
def shrunk(draw, cells):
    """A strictly smaller report: cells dropped, ids dropped from the
    cells that stay."""
    kept = {}
    for cell, entry in cells.items():
        if draw(st.booleans()):
            ids = sorted(entry.sets, key=repr)
            sets = frozenset(
                draw(st.lists(st.sampled_from(ids), unique=True))
                if ids else ()
            )
            kept[cell] = Entry(entry.pair, sets)
    return kept


@st.composite
def ack_sequences(draw, rqs):
    """A sequence of ``(server, rnd, snapshot)`` acks.

    Most servers share one *common* history (correct servers that
    applied the same writes), some lag behind it, some forge their own,
    some never answer; then a few servers ack again — with a stale or
    forged or empty snapshot, or with a shrunk version of what they
    reported before.
    """
    servers = sorted(rqs.ground_set, key=repr)
    ids = id_pool(rqs)
    common = draw(snapshots(ids))
    kinds = st.sampled_from(
        ["common"] * 5 + ["stale", "forged", "empty", "absent"]
    )
    latest = {}

    def ack(server, kind):
        if kind == "common":
            cells = dict(common)
        elif kind == "stale":
            kept = draw(st.sets(st.sampled_from(sorted(common)))
                        if common else st.just(set()))
            cells = {cell: common[cell] for cell in common if cell in kept}
        elif kind == "forged":
            cells = draw(snapshots(ids))
        elif kind == "shrunk":
            cells = draw(shrunk(latest.get(server, common)))
        else:
            cells = {}
        latest[server] = cells
        rnd = draw(st.sampled_from([1, 1, 1, 2]))
        return (server, rnd, HistoryView(cells))

    acks = [
        ack(server, kind)
        for server, kind in zip(servers, draw(st.lists(
            kinds, min_size=len(servers), max_size=len(servers)
        )))
        if kind != "absent"
    ]
    for _ in range(draw(st.integers(0, 3))):
        acks.append(ack(
            draw(st.sampled_from(servers)),
            draw(st.sampled_from(["shrunk", "shrunk", "stale", "forged",
                                  "empty"])),
        ))
    return acks


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
@settings(DIFFERENTIAL, max_examples=30)
def test_indexed_predicates_match_per_server_oracle(name, data):
    rqs = SYSTEMS[name]
    acks = data.draw(ack_sequences(rqs))
    run_script(
        rqs, acks,
        freeze_after=data.draw(st.integers(0, len(acks))),
        ceiling=data.draw(st.none() | st.integers(0, 2)),
    )


def snapshot_with(ts, rnd, value, ids=frozenset()):
    history = History()
    history.store(ts, rnd, value, ids)
    return history.snapshot()


EXAMPLE7 = SYSTEMS["example7"]
#: s3 and s4 hold ⟨1, 1⟩ in slot 1 listing the class-2 quorum Q2; the
#: rest of Q2' = {s1, s2, s3, s4, s6} answers with nothing.
LINE5_SCRIPT = [
    (s, 1, snapshot_with(1, 1, 1, frozenset({
        frozenset({"s1", "s2", "s3", "s4", "s5"})
    })))
    for s in ("s3", "s4")
] + [(s, 1, History().snapshot()) for s in ("s1", "s2", "s6")]


def test_oracle_is_not_vacuous():
    """A state where the interesting predicates are all *true* (so the
    differential test cannot pass by every side answering False)."""
    rqs = SYSTEMS["example6"]
    c = Pair(1, "a")
    qr = rqs.qc2[0]
    history = History()
    history.store(1, 1, "a", frozenset({qr}))
    history.store(1, 2, "a", frozenset({qr}))
    states = trio(rqs)
    for server in rqs.ground_set:
        feed(states, (server, 1, history.snapshot()))
    play(states, ("freeze",))
    naive = states[2]
    assert naive.safe(c) and not naive.invalid(c) and naive.high_cand(c)
    assert naive.valid1(c, qr) and naive.valid2(c, qr) and naive.valid3(c, qr)
    assert naive.bcd1(c, 1) and naive.bcd1(c, 2) and naive.bcd2(c, 1)
    assert naive.candidates() == [c]
    assert_same_answers(states)


def test_line_5_alone_can_vouch_for_a_pair():
    """Some responded quorum fails lines 3-4 and line 5 rescues it: the
    minimal-quorum pass must hand over to the full walk, not answer."""
    states = run_script(EXAMPLE7, LINE5_SCRIPT, freeze_after=2)
    state, _, naive = states
    c = Pair(1, 1)
    assert naive.fails_lines_3_and_4(c) and not naive.invalid(c)
    assert not state.invalid(c)


# -- absent servers ---------------------------------------------------------------


def test_non_responders_hold_the_initial_pair():
    """A server that never answered reports ``INITIAL_ENTRY``: inside a
    ``BCD`` intersection it counts as holding ``⟨0, ⊥⟩`` — but it
    confirms nothing, so it never makes ``⟨0, ⊥⟩`` safe."""
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    states = trio(rqs)
    state, _, naive = states
    assert naive.bcd1(INITIAL_PAIR, 1) and state.bcd1(INITIAL_PAIR, 1)
    assert not naive.safe(INITIAL_PAIR) and not state.safe(INITIAL_PAIR)
    assert state.holders(INITIAL_PAIR, 1) == rqs.index.full
    feed(states, (1, 1, History().snapshot()))
    assert_same_answers(states)
    # Server 2 answers with a different timestamp-0 cell: it alone
    # stops holding ⟨0, ⊥⟩, and every Q1 ∩ Q1 (= S) now misses it.
    feed(states, (
        2, 1, HistoryView({(0, 1): Entry(Pair(0, "a"), frozenset())})
    ))
    assert not naive.bcd1(INITIAL_PAIR, 1) and not state.bcd1(INITIAL_PAIR, 1)
    assert_same_answers(states)


def test_acks_from_outside_the_ground_set_are_dropped():
    """Only a server's snapshot counts: an ack from any other process
    enters no view, offers no candidate, cannot raise ``highest_ts``
    and confirms nothing — alone or next to genuine acks."""
    rqs = threshold_rqs(5, 1, 1, 0, 1)
    states = trio(rqs)
    state, _, naive = states
    forged = History()
    forged.store(7, 1, "forged", frozenset(rqs.qc2[:1]))
    forged.store(7, 2, "forged", frozenset(rqs.qc2[:1]))
    intruders = ("reader-9", 42)

    def intrude():
        for intruder in intruders:
            feed(states, (intruder, 1, forged.snapshot()))

    intrude()
    assert state.view == {} and state.observed_pairs() == []
    assert not state.round_quorum(1)
    assert_same_answers(states)
    for server in (1, 2, 3, 4):
        feed(states, (server, 1, snapshot_with(1, 1, "a")))
    intrude()
    play(states, ("freeze",))
    assert state.highest_ts == 1
    assert sorted(state.view) == [1, 2, 3, 4]
    assert state.invalid(Pair(7, "forged"))
    assert not state.safe(Pair(7, "forged"))
    for intruder in intruders:
        for c in (Pair(7, "forged"), Pair(1, "a")):
            assert not naive.read_pred(c, intruder)
    assert state.candidates() == naive.candidates() == [Pair(1, "a")]
    assert_same_answers(states)


# -- the table follows the current views ---------------------------------------------


class TestMemoInvalidation:
    """A predicate is evaluated, then an ack lands — from a new server,
    or from one that answered before and now reports less: the next
    evaluation must follow the oracles."""

    def setup_method(self):
        self.rqs = threshold_rqs(5, 1, 1, 0, 1)
        self.states = trio(self.rqs)
        self.state = self.states[0]
        self.c = Pair(1, "v")

    def ack(self, server, rnd, snapshot):
        feed(self.states, (server, rnd, snapshot))

    def test_ack_from_a_new_server(self):
        bits = self.rqs.index.bit
        self.ack(1, 1, snapshot_with(1, 1, "v"))
        assert not self.state.safe(self.c)
        assert self.state.holders(self.c, 1) == bits[1]
        assert self.state.observed_pairs() == [INITIAL_PAIR, self.c]
        assert_same_answers(self.states)
        self.ack(2, 1, snapshot_with(1, 1, "v"))
        assert self.state.safe(self.c)
        assert self.state.holders(self.c, 1) == bits[1] | bits[2]
        assert_same_answers(self.states)
        self.ack(3, 1, snapshot_with(2, 1, "w"))
        assert self.state.observed_pairs() == [
            INITIAL_PAIR, self.c, Pair(2, "w")
        ]
        assert_same_answers(self.states)

    def test_byzantine_overwrite_drops_a_holder(self):
        for server in (1, 2):
            self.ack(server, 1, snapshot_with(1, 1, "v"))
        for server in (3, 4):
            self.ack(server, 1, History().snapshot())
        play(self.states, ("freeze",))
        bits = self.rqs.index.bit
        assert self.state.holders(self.c, 1) == bits[1] | bits[2]
        assert self.state.safe(self.c)
        assert not self.state.invalid(self.c)
        assert_same_answers(self.states)
        # Server 2 answers round 2 with a snapshot that forgot ⟨1, v⟩.
        self.ack(2, 2, History().snapshot())
        assert self.state.holders(self.c, 1) == bits[1]
        assert not self.state.safe(self.c)
        assert self.state.invalid(self.c)
        assert self.state.candidates() == [INITIAL_PAIR]
        assert_same_answers(self.states)

    def test_overwrite_drops_an_observed_pair(self):
        self.ack(1, 1, snapshot_with(1, 1, "v"))
        self.ack(2, 1, snapshot_with(2, 1, "w"))
        assert self.state.observed_pairs() == [
            INITIAL_PAIR, self.c, Pair(2, "w")
        ]
        self.ack(2, 2, History().snapshot())
        assert self.state.observed_pairs() == [INITIAL_PAIR, self.c]
        play(self.states, ("freeze",))
        assert self.state.highest_ts == 1
        assert_same_answers(self.states)

    def test_overwrite_drops_a_listed_quorum_id(self):
        states = run_script(EXAMPLE7, LINE5_SCRIPT, freeze_after=2)
        state = states[0]
        c = Pair(1, 1)
        assert not state.invalid(c)  # line 5 vouches on Q2'
        # s4 keeps the pair but no longer lists Q2's id.
        feed(states, ("s4", 2, snapshot_with(1, 1, 1)))
        assert state.invalid(c)
        assert_same_answers(states)

    def test_read_batch_ack_feeds_every_element_state(self):
        reader = StorageReader("reader", self.rqs)
        elements = (trio(self.rqs), trio(self.rqs))
        pairs = (Pair(1, "x"), Pair(1, "y"))
        reader._batch_states[7] = tuple(states[0] for states in elements)
        reader._batch_acks(7, 1)

        def deliver(server, replies):
            reader.on_message(server, ReadBatchAck(7, 1, replies))
            for states, snapshot in zip(elements, replies):
                feed(states[1:], (server, 1, snapshot))

        replies = (snapshot_with(1, 1, "x"), snapshot_with(1, 1, "y"))
        deliver(1, replies)
        for states, c in zip(elements, pairs):
            assert not states[0].safe(c)
            assert_same_answers(states)
        deliver(2, replies)
        for states, c in zip(elements, pairs):
            assert states[0].safe(c)
            assert_same_answers(states)
        # One batched re-ack overwrites both elements' snapshots.
        deliver(2, (History().snapshot(), snapshot_with(1, 1, "y")))
        assert not elements[0][0].safe(pairs[0])
        assert elements[1][0].safe(pairs[1])
        for states in elements:
            assert_same_answers(states)


# -- the order of a tie ---------------------------------------------------------------

#: Eight acks in which Byzantine servers file five more values under
#: the writer's timestamp 2 (string values and server ids: their hashes
#: move with PYTHONHASHSEED).
TIE_SCRIPT = '''
from repro.scenarios import resolve_rqs
from repro.storage.history import Entry, HistoryView, Pair
from repro.storage.predicates import ReadState

state = ReadState(resolve_rqs("example7"))
for server, values in (
    ("s3", "z"), ("s1", "za"), ("s6", "qz"), ("s2", "z"),
    ("s5", "mk"), ("s4", "z"),
):
    state.record_ack(server, 1, HistoryView({
        (2, 1 + i % 2): Entry(Pair(2, value), frozenset())
        for i, value in enumerate(values)
    }))
state.freeze_round1()
print([str(p.val) for p in state.observed_pairs()])
print([str(p.val) for p in state.candidates()])
print(max(state.candidates(), key=lambda pair: pair.ts).val)
'''


def test_tie_order_does_not_depend_on_the_hash_seed():
    """Pairs sharing a timestamp come out by first report (ack order,
    then cell order) — the same list under every ``PYTHONHASHSEED``
    (sorting a set by timestamp alone gave a different one each)."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", TIE_SCRIPT], check=True, text=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "['⊥', 'z', 'a', 'q', 'm', 'k']", "['z', 'q', 'm', 'k']", "z",
    ]


# -- seeded mutants of the table and of the minimal-quorum pass ----------------------

N5 = threshold_rqs(5, 1, 1, 0, 1)   # quorums: any four servers; B_1


class ReAckDoesNotStrip(ReadState):
    def _strip(self, bit):
        pass


class ListingSurvivesItsLastLister(ReadState):
    """Strips the holder masks but leaves the per-id listings."""

    def _strip(self, bit):
        for row in self._rows.values():
            row[:4] = [mask & ~bit for mask in row[:4]]
        self._touched0 = [mask & ~bit for mask in self._touched0]


class ForeignTimestampHolds(ReadState):
    """A cell ``(ts, rnd)`` carrying a pair of another timestamp makes
    its server a holder of that pair."""

    def record_ack(self, server, rnd, history):
        super().record_ack(server, rnd, history)
        for (_ts, slot), entry in history.cells.items():
            self._rows[entry.pair][slot] |= self._ix.bit[server]


class UnwrittenCellsHoldNothing(ReadState):
    """Only non-responders count as holding ``⟨0, ⊥⟩`` by default."""

    def holders(self, c, rnd):
        row = self._rows.get(c)
        held = row[rnd] if row is not None else 0
        if c == INITIAL_PAIR:
            held |= self._ix.full & ~self._responded
        return held


class Slot3IsObserved(ReadState):
    def observed_pairs(self):
        if not self._responded:
            return []
        pairs = {INITIAL_PAIR: None}
        pairs.update(
            (pair, None) for pair, row in self._rows.items() if any(row[:4])
        )
        return sorted(pairs, key=lambda p: p.ts)


class _MinimalPassMutant(ReadState):
    """``invalid`` with its minimal-quorum pass rewritten by a mutant."""

    answers_without_line_5 = False
    ignores_responded = False

    def invalid(self, c):
        if c.ts > self.highest_ts:
            return True
        ix = self._ix
        responded = ix.full if self.ignores_responded else self._responded
        held1, held2 = self.holders(c, 1), self.holders(c, 2)
        for quorum in ix.minimal():
            if quorum & responded != quorum or held2 & quorum:
                continue
            held = held1 & quorum
            if not (held and ix.is_basic(held)):
                break
        else:
            return False
        if self.answers_without_line_5:
            return True
        listed = self._listed(c, 1)
        return any(
            not (
                held2 & quorum
                or (held1 & quorum and ix.is_basic(held1 & quorum))
                or self._valid3(listed, quorum)
            )
            for quorum in ix.responding(self._responded)
        )


class MinimalPassAnswersInvalid(_MinimalPassMutant):
    answers_without_line_5 = True


class MinimalPassIgnoresResponded(_MinimalPassMutant):
    ignores_responded = True


class Line6FastPathUnguarded(ReadState):
    """Answers "not invalid" whenever every responder holds ``c`` in
    slot 1, without asking whether every quorum is basic."""

    def invalid(self, c):
        if c.ts <= self.highest_ts and not (
            self._responded & ~self.holders(c, 1)
        ):
            return False
        return super().invalid(c)


class Qc2FromLiveAcks(ReadState):
    """Lists ``QC'2`` from the round-1 acks as they stand, not as
    ``freeze_round1`` fixed them."""

    def _qc2_masks(self):
        return self._ix.responding(self._round_acks.get(1, 0), 2)


#: mutant -> (system, script, freeze after this many acks) that kills it.
MUTANTS = {
    # Server 2 re-acks having forgotten ⟨1, v⟩: one holder fewer.
    ReAckDoesNotStrip: (N5, [
        (1, 1, snapshot_with(1, 1, "v")), (2, 1, snapshot_with(1, 1, "v")),
        (2, 2, History().snapshot()),
    ], 2),
    # s4 re-acks with the pair but without Q2's id: line 5 must fail.
    ListingSurvivesItsLastLister: (
        EXAMPLE7, LINE5_SCRIPT + [("s4", 2, snapshot_with(1, 1, 1))], 2,
    ),
    # Two servers file ⟨7, x⟩ in cell (2, 1): observed, held by nobody.
    ForeignTimestampHolds: (N5, [
        (s, 1, HistoryView({(2, 1): Entry(Pair(7, "x"), frozenset())}))
        for s in (1, 2)
    ], 2),
    # Two empty answers make ⟨0, ⊥⟩ safe.
    UnwrittenCellsHoldNothing: (N5, [
        (1, 1, History().snapshot()), (2, 1, History().snapshot()),
    ], 2),
    # ⟨3, w⟩ only ever reached slot 3 of one server.
    Slot3IsObserved: (N5, [
        (1, 1, HistoryView({(3, 3): Entry(Pair(3, "w"), frozenset())})),
    ], 1),
    MinimalPassAnswersInvalid: (EXAMPLE7, LINE5_SCRIPT, 2),
    # ⟨1, v⟩ is held by 1 and 2 and {1, 2, 3, 4} answered; the quorums
    # through the silent server 5 settle nothing and cost a walk.
    MinimalPassIgnoresResponded: (N5, [
        (1, 1, snapshot_with(1, 1, "v")), (2, 1, snapshot_with(1, 1, "v")),
        (3, 1, History().snapshot()), (4, 1, History().snapshot()),
    ], 2),
    # {1, 2} answered and both hold ⟨1, v⟩ in slot 1, but that quorum
    # lies in B: it vouches for nothing, so ⟨1, v⟩ is invalid.
    Line6FastPathUnguarded: (UNSOUND, [
        (1, 1, snapshot_with(1, 1, "v")), (2, 1, snapshot_with(1, 1, "v")),
    ], 2),
    # Server 4's round-1 ack lands after the freeze and completes the
    # class-2 quorum {1, 2, 3, 4}, which must stay out of QC'2.
    Qc2FromLiveAcks: (N5, [
        (server, 1, History().snapshot()) for server in (1, 2, 3, 4)
    ], 3),
}


@each_mutant(MUTANTS)
def test_seeded_mutants_are_killed(mutant):
    rqs, script, freeze_after = MUTANTS[mutant]
    assert_killed(
        lambda cls: run_script(rqs, script, cls, freeze_after=freeze_after),
        ReadState, mutant,
    )
