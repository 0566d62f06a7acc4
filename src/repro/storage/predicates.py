"""Reader-side predicates of the storage algorithm (Figure 7, lines 1-9).

The reader accumulates per-server history snapshots (``view``) and the
set of servers that answered at least one ``rd`` message (from which the
``Responded`` quorum set derives).  All predicates are pure functions of
that state, bundled in :class:`ReadState` so the reader coroutine stays
close to the paper's pseudocode.

Figure 7's lines, as :class:`ReadState` answers them (paper line
numbers in brackets).  Lines 3-5 are the three ways a quorum ``Q`` can
vouch for a pair ``c``; they are asked only inside line 6, on masks:

* [3] a basic subset of ``Q`` reports ``c`` in slot 1;
* [4] some server of ``Q`` reports ``c`` in slot 2;
* [5] some class-2 quorum ``Q2`` and ``B ∈ B`` with ``P3b(Q2, Q, B)``
  such that every server in ``Q2 ∩ Q \\ B`` reports ``c`` in slot 1
  *with quorum id* ``Q2``;
* [6] :meth:`~ReadState.invalid` — some responded quorum satisfies none
  of lines 3-5, or ``c.ts`` exceeds ``highest_ts``;
* [7-8] :meth:`~ReadState.safe` — the responders that read ``c`` in
  slot 1 or 2 (line 7's ``read(c, i)``) form a basic set;
* [9, 33] :meth:`~ReadState.candidates` — the safe pairs above which
  every readable pair is invalid (line 9's ``highCand(c)``).  The
  reader takes line 35, the highest candidate, itself;
* [1-2] :meth:`~ReadState.bcd1` / :meth:`~ReadState.bcd2` — the
  best-case detector ``BCD(c, 1, R)`` / ``BCD(c, 2, R)``.

Every predicate asks the same question of the snapshots — *which
servers report* ``c`` *in slot* ``r`` — so :class:`ReadState` indexes
each snapshot **once, when its ack arrives**, into a per-read table and
the predicates are set algebra on the table's bitmasks (over the
system's :class:`~repro.core.rqs.QuorumIndex`).  A row, keyed by the
pair, holds:

* *seen* — the servers whose snapshot carries the pair somewhere in
  slot 1 or 2 (what makes a pair *observed* and counts toward
  ``highest_ts``; slot 3 is never read from);
* *held*, per slot — the servers that file it under its own timestamp,
  i.e. in cell ``(pair.ts, slot)``: the cell lines 1-9 probe.  A
  Byzantine server may file ``⟨7, v⟩`` in cell ``(2, 1)``; that pair is
  seen but held by nobody;
* *listed*, for slots 1 and 2 — per class-2 quorum id carried by a
  holder's entry, the holders that list it (other ids, and the ids of
  slot 3, mean nothing to the predicates).

The table is a function of the **current** views: a server that acks
again (a later round, a Byzantine overwrite) is first stripped from
every row, then indexed afresh, so a holder, a listed id or an observed
pair can disappear.  A server that has not answered reports the initial
entry, and so does an answer whose cell ``(0, r)`` was never written:
``⟨0, ⊥⟩`` is held in slot ``r`` by everyone except the responders that
filed something else there.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import Check, Condition
from repro.storage.history import (
    INITIAL_PAIR,
    HistoryView,
    Pair,
)

ServerId = Hashable
QuorumId = FrozenSet[ServerId]

_timestamp = attrgetter("ts")

_SLOTS = (1, 2, 3)


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
        self.highest_ts: int = 0                        # (line 29)
        # The round-1 ack mask ``freeze_round1`` fixed, and ``QC'2``
        # (lines 30-31) as the masks of its class-2 quorums, listed from
        # it on first use.
        self._round1 = 0
        self._qc2: Optional[Tuple[int, ...]] = None
        self._watchers: List[Condition] = []
        self._responded = 0                   # mask of ``view``'s servers
        self._round_acks: Dict[int, int] = {}           # rnd -> ack mask
        # The per-ack table, in order of first report.  A row is
        # ``[seen, held1, held2, held3, listed1, listed2]``: four server
        # masks, then per slot ``{class-2 quorum id: mask of the holders
        # listing it}`` (``None`` until some holder lists one).
        self._rows: Dict[Pair, list] = {}
        # By slot: the responders whose cell ``(0, slot)`` is written.
        self._touched0 = [0, 0, 0, 0]

    # -- state updates ---------------------------------------------------------

    def record_ack(self, server: ServerId, rnd: int, history: HistoryView) -> None:
        """Apply a ``rd_ack`` (Figure 7, lines 50-53): one walk of the
        snapshot's cells files the responder in the table.

        Figure 7 collects snapshots of the *servers*: an ack from a
        process outside ``S`` is dropped, so it can neither vouch for a
        pair nor raise ``highest_ts``.
        """
        bit = self._ix.bit.get(server)
        if bit is None:
            return
        rows = self._rows
        touched0 = self._touched0
        if self._responded & bit:
            self._strip(bit)
        self.view[server] = history
        self._responded |= bit
        self._round_acks[rnd] = self._round_acks.get(rnd, 0) | bit
        class_of = self._ix.class_of
        for (ts, slot), entry in history.cells.items():
            if slot not in _SLOTS:
                continue
            pair = entry.pair
            row = rows.get(pair)
            if row is None:
                row = rows[pair] = [0, 0, 0, 0, None, None]
            if slot != 3:
                row[0] |= bit
            if pair.ts == ts:
                row[slot] |= bit
                if entry.sets and slot != 3:
                    listed = row[slot + 3]
                    if listed is None:
                        listed = row[slot + 3] = {}
                    for quorum_id in entry.sets:
                        if class_of.get(quorum_id, 3) <= 2:
                            listed[quorum_id] = listed.get(quorum_id, 0) | bit
            if not ts:
                touched0[slot] |= bit
        for condition in self._watchers:
            condition.signal()

    def _strip(self, bit: int) -> None:
        """Forget everything the server's previous snapshot reported."""
        keep = ~bit
        for row in self._rows.values():
            for column in range(4):
                row[column] &= keep
            for listed in row[4:]:
                if listed:
                    for quorum_id, listing in list(listed.items()):
                        if listing == bit:
                            del listed[quorum_id]   # its last lister
                        elif listing & bit:
                            listed[quorum_id] = listing ^ bit
        touched0 = self._touched0
        for slot in _SLOTS:
            touched0[slot] &= keep

    def when(
        self, predicate, label: str = "", key: Optional[Tuple] = None
    ) -> Condition:
        """An ack-indexed wait on any predicate over this state
        (``label`` a template ``key`` fills, when read — as
        :class:`~repro.sim.conditions.Check` takes them).

        Pair with :meth:`unwatch` once the wait resumes, so completed
        rounds stop fanning signals out to dead conditions.
        """
        condition = Check(predicate, label, key)
        self._watchers.append(condition)
        return condition

    def unwatch(self, condition: Condition) -> None:
        self._watchers.remove(condition)

    def round_quorum(self, rnd: int) -> bool:
        """Has some quorum fully answered round ``rnd``?"""
        return self._ix.fits(self._round_acks.get(rnd, 0))

    def freeze_round1(self) -> None:
        """End-of-round-1 bookkeeping (lines 27-32): fix ``highest_ts``
        and the servers that answered round 1, whose class-2 quorums
        are ``QC'2`` (:meth:`_qc2_masks`)."""
        highest = 0
        for pair, row in self._rows.items():
            if row[0] and pair.ts > highest:
                highest = pair.ts
        self.highest_ts = highest
        self._round1 = self._round_acks.get(1, 0)
        self._qc2 = None

    def _qc2_masks(self) -> Tuple[int, ...]:
        """``QC'2`` (lines 30-31) as masks: the class-2 quorums that
        fully answered round 1 as :meth:`freeze_round1` fixed it —
        listed on first use, since only ``BCD(c, 2, R)`` reads them and
        a read the class-1 detector completes never does."""
        qc2 = self._qc2
        if qc2 is None:
            qc2 = self._qc2 = self._ix.responding(self._round1, 2)
        return qc2

    # -- low-level lookups --------------------------------------------------------

    def holders(self, c: Pair, rnd: int) -> int:
        """The servers whose current snapshot reports ``c`` in slot
        ``rnd`` (1, 2 or 3), as a mask over ``rqs.index``."""
        row = self._rows.get(c)
        held = row[rnd] if row is not None else 0
        if c == INITIAL_PAIR:
            # Non-responders and unwritten cells report INITIAL_ENTRY.
            held |= self._ix.full & ~self._touched0[rnd]
        return held

    def _listed(self, c: Pair, rnd: int) -> Dict[int, int]:
        """Per class-2 quorum (as a mask) listed with ``c`` in slot
        ``rnd`` (1 or 2): the holders whose entry lists its id."""
        row = self._rows.get(c)
        if row is None or not row[rnd + 3]:
            return {}
        mask = self._ix.mask
        return {
            mask(quorum_id): listing
            for quorum_id, listing in row[rnd + 3].items()
        }

    def observed_pairs(self) -> List[Pair]:
        """All candidate pairs: anything readable (slots 1-2) from any
        current snapshot.

        The order is defined, not incidental: by timestamp, and among
        pairs sharing one (a Byzantine server filing ``⟨2, 'a'⟩`` next
        to the writer's ``⟨2, 'z'⟩``) by **first report** to this read,
        in any slot — ack arrival order, then cell order within the
        snapshot.  ``⟨0, ⊥⟩``, which every answer reports before any
        cell, leads.
        """
        if not self._responded:
            return []
        pairs = [INITIAL_PAIR]
        pairs += [
            pair for pair, row in self._rows.items()
            if row[0] and pair != INITIAL_PAIR
        ]
        pairs.sort(key=_timestamp)
        return pairs

    # -- validity predicates ---------------------------------------------------------

    def _valid3(self, listed: Dict[int, int], quorum: int) -> bool:
        """Line 5 on masks: ``listed`` is :meth:`_listed` of slot 1.

        For a fixed ``Q2`` the minimal witness ``B`` is the set of
        non-conforming servers of ``Q2 ∩ Q`` (any valid ``B`` must cover
        it, and P3b is anti-monotone in ``B``), so only that ``B`` needs
        checking.
        """
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
        """Line 6: some responded quorum satisfies none of lines 3-5.

        Lines 3 and 4 are monotone in ``Q`` — a superset quorum keeps a
        basic slot-1 subset and a slot-2 holder — and every responded
        quorum contains a *minimal* responded one, so if 3-4 hold on
        those they hold on all of ``Responded`` and ``c`` is not
        invalid.  Line 5 is not monotone (a larger ``Q`` enlarges
        ``Q2 ∩ Q``, which can only lose conformity): when a minimal
        quorum fails 3-4 the whole of ``Responded`` is walked, line 5
        consulted for the quorums failing 3-4.

        When every responder holds ``c`` in slot 1 and every quorum is
        basic (``index.all_basic``), each responded quorum is its own
        basic slot-1 subset: line 3 holds on all of them at once.
        """
        if c.ts > self.highest_ts:
            return True
        ix = self._ix
        responded = self._responded
        held1 = self.holders(c, 1)
        if not responded & ~held1 and ix.all_basic:
            return False
        held2 = self.holders(c, 2)
        # The memo behind ``ix.is_basic``, read in place: one dict probe
        # per quorum instead of one call.
        basic = ix._basic
        for quorum in ix.minimal():
            if quorum & responded != quorum or held2 & quorum:
                continue
            held = held1 & quorum
            if held and (basic.get(held) or ix.is_basic(held)):
                continue
            break
        else:
            return False
        listed = self._listed(c, 1)
        for quorum in ix.responding(responded):
            if held2 & quorum:
                continue
            held = held1 & quorum
            if held and ix.is_basic(held):
                continue
            if not self._valid3(listed, quorum):
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

    def candidates(self) -> List[Pair]:
        """Line 33: ``C = {c | safe(c) ∧ highCand(c)}``, in
        :meth:`observed_pairs` order.

        ``highCand(c)`` says ``c.ts`` is at least the timestamp of the
        highest pair that is *not* invalid, so one descent from the top
        finds that floor — typically at the first pair — and line 6 is
        never asked about anything below it.
        """
        kept: List[Pair] = []
        floor = None
        for c in reversed(self.observed_pairs()):
            if floor is None:
                if not self.invalid(c):
                    floor = c.ts
            elif c.ts < floor:
                break
            if self.safe(c):
                kept.append(c)
        kept.reverse()
        return kept

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
        if big_r != 2:
            missing = ~self.holders(c, big_r)
            return any(
                not meet & missing for meet in ix.class1_meets(big_r)
            )
        for qr, listing in self._listed(c, 2).items():
            missing = ~listing
            if any(not meet & missing for meet in ix.meets(1, qr)):
                return True
        return False

    def bcd2(self, c: Pair, big_r: int) -> Tuple[QuorumId, ...]:
        """``BCD(c, 2, R)`` (line 2): the class-2 quorums of ``QC'2`` that
        are "confirmed" through some class-``R`` quorum.  ``QC'2`` is
        walked as masks; only a confirmed one is turned back into its
        quorum id."""
        ix = self._ix
        meets = ix.meets
        missing = ~self.holders(c, big_r)
        quorum_at = ix.quorum_at
        return tuple([
            quorum_at[q2]
            for q2 in self._qc2_masks()
            if any(not meet & missing for meet in meets(big_r, q2))
        ])
