"""Timestamp/value pairs and the per-server history matrix (Figure 6).

Every server stores, for each timestamp ``ts`` and round slot
``rnd ∈ {1, 2, 3}``, an entry ``⟨pair, sets⟩`` where ``pair`` is a
timestamp/value pair and ``sets`` is a set of class-2 quorum ids.  The
paper's servers keep the entire history of the shared variable (a
deliberate simplification it discusses in Section 5); we do the same by
default, and optionally garbage-collect superseded cells
(:meth:`History.gc_below`) once a server holds quorum-ack evidence for
strictly newer state — see ``bounded_history`` in
:class:`~repro.storage.server.StorageServer`.

``⊥`` (the initial storage value, outside the write domain) is the
:data:`BOTTOM` singleton, and the initial pair is ``⟨0, ⊥⟩``.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, NamedTuple, Set, Tuple

QuorumId = FrozenSet[Hashable]

#: The register every un-keyed operation addresses.  Single-register
#: workloads (every pre-keyed spec) read and write exactly this key, so
#: their executions are bit-identical to the historical single-register
#: code path.
DEFAULT_KEY: Hashable = 0

#: Multi-writer timestamps are integers ``seq * WRITER_STRIDE +
#: writer_id`` — totally ordered by ``(seq, writer_id)`` while staying
#: plain ints, so every comparison against the initial timestamp ``0``
#: and every history/message/condition keyed by ``ts`` works unchanged.
#: Single-writer systems keep bare sequence numbers (the historical
#: encoding); the stride supports up to ~a million concurrent writers.
WRITER_STRIDE = 1 << 20


def make_stamp(seq: int, writer_id: int) -> int:
    """The totally-ordered multi-writer timestamp ``(seq, writer_id)``."""
    if not 0 <= writer_id < WRITER_STRIDE:
        raise ValueError(f"writer_id must be in [0, {WRITER_STRIDE}), "
                         f"got {writer_id}")
    return seq * WRITER_STRIDE + writer_id


def stamp_seq(ts: int) -> int:
    """The sequence-number component of a stamped timestamp."""
    return ts // WRITER_STRIDE


class _Bottom:
    """The out-of-domain initial value ``⊥`` (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOTTOM = _Bottom()


class Pair(NamedTuple):
    """A timestamp/value pair ``⟨ts, val⟩``."""

    ts: int
    val: Any


INITIAL_PAIR = Pair(0, BOTTOM)


class Entry(NamedTuple):
    """One ``history[ts, rnd]`` cell: a pair plus class-2 quorum ids."""

    pair: Pair
    sets: FrozenSet[QuorumId]


INITIAL_ENTRY = Entry(INITIAL_PAIR, frozenset())

#: ``new_cell(Pair, (ts, val))`` is ``Pair(ts, val)`` — the same type and
#: value — built in C, without the Python frame a ``NamedTuple`` call
#: runs its ``__new__`` in.  The writes a server makes per message
#: (:meth:`History.store`, the register servers' slot writes) use it.
new_cell = tuple.__new__


class History:
    """The mutable server-side history matrix.

    Cells default to :data:`INITIAL_ENTRY`; only written cells are
    materialized.  Snapshots are cheap immutable dicts suitable for
    shipping inside ``rd_ack`` messages.

    Beside the cells sits the garbage-collection evidence a
    bounded-history server infers for this register (see
    :class:`~repro.storage.server.StorageServer`): ``stable_ts``, below
    which every cell is superseded, and ``last_wr``, each client's last
    ``(ts, rnd)``.  Neither is part of a snapshot.
    """

    def __init__(self):
        self._cells: Dict[Tuple[int, int], Entry] = {}
        self.stable_ts = 0
        self.last_wr: Dict[Hashable, Tuple[int, int]] = {}

    def get(self, ts: int, rnd: int) -> Entry:
        return self._cells.get((ts, rnd), INITIAL_ENTRY)

    def store(self, ts: int, rnd: int, value: Any, sets: FrozenSet[QuorumId]) -> int:
        """Apply a ``wr⟨ts, v, QC'2, rnd⟩`` message (Figure 6, lines 3-6).

        For every slot ``m ≤ rnd``: if the cell is untouched or already
        holds ``⟨ts, v⟩``, set its pair; additionally, at ``m = rnd``,
        union in the received quorum-id set.  Returns the number of
        newly materialized cells (for retained-cell accounting).
        """
        pair = new_cell(Pair, (ts, value))
        created = 0
        for m in range(1, rnd + 1):
            key = (ts, m)
            current = self._cells.get(key)
            if current is None:
                new_sets = sets if m == rnd else frozenset()
                self._cells[key] = new_cell(Entry, (pair, new_sets))
                created += 1
            elif current.pair == pair:
                if m == rnd:
                    self._cells[key] = new_cell(
                        Entry, (pair, current.sets | sets)
                    )
        # Per Figure 6 a server acks regardless of whether the condition
        # in line 4 let it update; the caller sends the ack.
        return created

    def gc_below(self, stable_ts: int) -> int:
        """Drop every cell with timestamp strictly below ``stable_ts``.

        The caller must hold evidence that a full quorum acked state at
        ``stable_ts`` (or newer): any cell older than that is superseded
        — no future candidate selection can need it, because discovery
        reads the *maximum* advertised timestamp from a quorum that
        intersects the acked one, and reader predicates only confirm
        candidates at or above what a quorum advertises.  Returns the
        number of cells removed.
        """
        stale = [cell for cell in self._cells if cell[0] < stable_ts]
        for cell in stale:
            del self._cells[cell]
        return len(stale)

    def snapshot(self) -> "HistoryView":
        return HistoryView(dict(self._cells))

    def overwrite(self, other: "HistoryView") -> None:
        """Replace all cells (Byzantine state forging only)."""
        self._cells = dict(other.cells)

    def clear(self) -> None:
        """Reset to the initial state σ0 (Byzantine state forging only)."""
        self._cells.clear()

    def __len__(self) -> int:
        return len(self._cells)


class HistoryView:
    """An immutable snapshot of a server history (reader-side).

    ``cells`` maps ``(ts, rnd)`` to the stored :class:`Entry`, in the
    order the server materialized them; read it, never write it (the
    reader indexes a snapshot with one walk of this dict).
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Dict[Tuple[int, int], Entry]):
        self.cells = cells

    def get(self, ts: int, rnd: int) -> Entry:
        return self.cells.get((ts, rnd), INITIAL_ENTRY)

    def pairs(self) -> Set[Pair]:
        """All distinct pairs readable in slots 1 and 2 (plus ⟨0, ⊥⟩)."""
        pairs = {INITIAL_PAIR}
        for (ts, rnd), entry in self.cells.items():
            if rnd in (1, 2):
                pairs.add(entry.pair)
        return pairs

    def max_timestamp(self) -> int:
        """Highest timestamp present in slots 1 or 2 (0 when untouched)."""
        best = 0
        for (ts, rnd), entry in self.cells.items():
            if rnd in (1, 2) and entry.pair.ts > best:
                best = entry.pair.ts
        return best

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistoryView):
            return NotImplemented
        return self.cells == other.cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HistoryView({len(self.cells)} cells)"


EMPTY_VIEW = HistoryView({})
