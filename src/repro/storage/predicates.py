"""Reader-side predicates of the storage algorithm (Figure 7, lines 1-9).

The reader accumulates per-server history snapshots (``view``) and the
set of servers that answered at least one ``rd`` message (from which the
``Responded`` quorum set derives).  All predicates are pure functions of
that state, bundled in :class:`ReadState` so the reader coroutine stays
close to the paper's pseudocode.

Predicate catalogue (paper line numbers in brackets):

* ``valid1(c, Q)`` [3] — a basic subset of ``Q`` reports ``c`` in slot 1.
* ``valid2(c, Q)`` [4] — some server of ``Q`` reports ``c`` in slot 2.
* ``valid3(c, Q)`` [5] — some class-2 quorum ``Q2`` and ``B ∈ B`` with
  ``P3b(Q2, Q, B)`` such that every server in ``Q2 ∩ Q \\ B`` reports
  ``c`` in slot 1 *with quorum id* ``Q2``.
* ``invalid(c)`` [6] — some responded quorum satisfies none of the
  above, or ``c.ts`` exceeds ``highest_ts``.
* ``read(c, i)`` [7], ``safe(c)`` [8], ``highCand(c)`` [9].
* ``BCD(c, 1, R)`` / ``BCD(c, 2, R)`` [1-2] — the best-case detector.

Every predicate asks the same question of the snapshots — *which
servers report* ``c`` *in slot* ``r`` — so :class:`ReadState` answers
it once per (candidate, slot) as a bitmask over the system's
:class:`~repro.core.rqs.QuorumIndex` and the predicates are set algebra
on those *holder* masks.  The masks are a function of the **current**
views (a Byzantine server may replace its snapshot, so a holder can
drop out): every ack discards them.  A server that has not answered
reports the initial entry, so ``⟨0, ⊥⟩`` is held by every non-responder.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import Check, Condition
from repro.storage.history import (
    EMPTY_VIEW,
    INITIAL_PAIR,
    HistoryView,
    Pair,
)

ServerId = Hashable
QuorumId = FrozenSet[ServerId]
#: Who reports a pair in one slot: the holder mask and, per listed
#: class-2 quorum (as a mask), the holders whose entry lists its id.
_Slot = Tuple[int, Dict[int, int]]


class ReadState:
    """The predicate-relevant state of one read operation.

    Every predicate here is a pure function of the acks recorded by
    :meth:`record_ack`, so the state doubles as a signal hub for the
    indexed event loop: reader waits built via :meth:`when` are
    signalled exactly when an ack lands (and never re-polled
    otherwise).
    """

    def __init__(self, rqs: RefinedQuorumSystem):
        self.rqs = rqs
        self._ix = rqs.index
        self.view: Dict[ServerId, HistoryView] = {}
        self.qc2_responded: Tuple[QuorumId, ...] = ()   # QC'2 (line 30-31)
        self.highest_ts: int = 0                        # (line 29)
        self._watchers: List[Condition] = []
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
        for condition in self._watchers:
            condition.signal()

    def when(self, predicate, label: str = "") -> Condition:
        """An ack-indexed wait on any predicate over this state.

        Pair with :meth:`unwatch` once the wait resumes, so completed
        rounds stop fanning signals out to dead conditions.
        """
        condition = Check(predicate, label)
        self._watchers.append(condition)
        return condition

    def unwatch(self, condition: Condition) -> None:
        self._watchers.remove(condition)

    def _responded_masks(self) -> Tuple[int, ...]:
        quorums = self._quorums
        if quorums is None:
            quorums = self._quorums = self._ix.responding(self._responded)
        return quorums

    def responded_quorums(self) -> Tuple[QuorumId, ...]:
        """The ``Responded`` set (lines 52-53): fully-answering quorums."""
        quorum_at = self._ix.quorum_at
        return tuple(quorum_at[mask] for mask in self._responded_masks())

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

    def entry(self, server: ServerId, ts: int, rnd: int):
        return self.view.get(server, EMPTY_VIEW).get(ts, rnd)

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

    def read_pred(self, c: Pair, server: ServerId) -> bool:
        """``read(c, i)`` (line 7): ``c`` in slot 1 or 2 of the snapshot."""
        return bool(
            (self.holders(c, 1) | self.holders(c, 2))
            & self._ix.bit.get(server, 0)
        )

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
    # looks the holders up once and walks ``Responded`` with these; the
    # public predicates are the same tests on a quorum id).

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

    def valid1(self, c: Pair, quorum: QuorumId) -> bool:
        """Line 3: a basic ``T ⊆ Q`` stores ``c`` in slot 1.

        The maximal candidate ``T`` suffices: supersets of basic sets are
        basic (the adversary is subset-closed).
        """
        return self._valid1(self.holders(c, 1), self._ix.mask(quorum))

    def valid2(self, c: Pair, quorum: QuorumId) -> bool:
        """Line 4: some server of ``Q`` stores ``c`` in slot 2."""
        return self._valid2(self.holders(c, 2), self._ix.mask(quorum))

    def valid3(self, c: Pair, quorum: QuorumId) -> bool:
        """Line 5: ∃ Q2 ∈ QC2, ∃ B ∈ B with P3b(Q2, Q, B) such that every
        server of ``Q2 ∩ Q \\ B`` stores ``c`` in slot 1 with id ``Q2``.

        For a fixed ``Q2`` the minimal witness ``B`` is the set of
        non-conforming servers of ``Q2 ∩ Q`` (any valid ``B`` must cover
        it, and P3b is anti-monotone in ``B``), so only that ``B`` needs
        checking.
        """
        return self._valid3(self._slot(c, 1)[1], self._ix.mask(quorum))

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

    def select(self) -> Optional[Pair]:
        """Line 35: the candidate with the highest timestamp, or ``None``."""
        candidates = self.candidates()
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.ts)

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
