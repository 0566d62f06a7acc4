"""The storage server automaton (Figure 6) and Byzantine variants.

A benign server keeps a :class:`~repro.storage.history.History` matrix,
applies ``wr`` messages to it and answers ``rd`` messages with a full
snapshot.  Per the round-based model, a server replies to each client
message before processing any other message — which is automatic here
because handling is synchronous within a delivery event.

Servers never park on the simulator: they are pure message-in /
message-out automata, so the condition-indexed event loop's
`signal`/wake machinery lives entirely on the client side (the ack a
server sends lands in a client's ``AckSet``/``ReadState``, which
signals the client's wait).  Byzantine state mutations below (forging,
rollbacks) therefore need no signalling either — they only influence
clients through future replies.

Byzantine variants used by tests and proof replays (a server that never
answers is a crash, ``Crash(sid, 0.0)``, not a variant):

* :class:`FabricatingServer` — answers reads with a forged history
  advertising an arbitrary high-timestamp value (the fabrication attack
  that the reader's ``safe`` predicate must defeat).
* :class:`ForgetfulServer` — behaves correctly but "forgets": at a
  trigger time every register is rolled back to a given snapshot (used
  for the σ0/σ1 forgeries of Figure 4 and the Theorem 3 proof replay).
* :class:`QuorumForgettingServer` — erases the class-2 quorum ids stored
  by read write-backs while keeping the pairs ("forgets round 2 of rd",
  the ex4 behaviour of Figure 4).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

from repro.sim.process import Process
from repro.storage.history import Entry, History, HistoryView
from repro.storage.batching import (
    BatchAck,
    ReadBatch,
    ReadBatchAck,
    WriteBatch,
)
from repro.storage.messages import RD, RdAck, WR, WrAck


class StorageServer(Process):
    """A benign storage server.

    The server keeps one independent :class:`History` matrix per
    register key (the keyed-register-space lift), created on the first
    message that names the key.  Every read reply, batched or not, is
    built by :meth:`reply`, and the Byzantine forgeries below act on
    every register in ``histories``.

    With ``bounded_history=True`` the server garbage-collects
    superseded history cells.  Servers never see acks, so the evidence
    that a quorum acked strictly newer state is inferred from the
    messages a server *does* receive, exploiting that every client
    round blocks on a quorum of acks before the next message leaves:

    * a ``wr`` with ``rnd ≥ 2`` at ``ts`` proves round 1 at ``ts`` was
      acked by a full quorum (the writer/reader only advances rounds
      after ``quorum_acked``), and
    * a ``wr`` from a source whose *previous* ``wr`` (per key) differed
      proves the previous round was quorum-acked, since clients are
      sequential and block on each round.

    Cells strictly below the resulting stable timestamp are dropped.
    Discovery never needs them (``max_timestamp`` of a quorum that
    meets the acking one), and verdicts do not change, but an execution
    can: a reader with a partial view can no longer confirm an older
    pair whose cells were collected, so it takes another round.  The
    golden-fingerprint specs run bit-identical with the knob on or off;
    two batched ``lossy-view`` cells do not (both pinned in
    ``tests/storage/test_bounded_history.py``).  Counters
    (``history_cells``, ``max_history_cells``, ``gc_removed``) feed
    ``RunResult.server_history``.
    """

    def __init__(self, pid: Hashable, bounded_history: bool = False):
        super().__init__(pid)
        self.bounded_history = bounded_history
        self.history_cells = 0
        self.max_history_cells = 0
        self.gc_removed = 0
        self.histories: Dict[Hashable, History] = {}

    def history_for(self, key: Hashable) -> History:
        """The (lazily created) history matrix of one register."""
        history = self.histories.get(key)
        if history is None:
            history = self.histories[key] = History()
        return history

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, WR):
            self.handle_write(src, payload)
        elif isinstance(payload, RD):
            self.handle_read(src, payload)
        elif isinstance(payload, WriteBatch):
            self.handle_write_batch(src, payload)
        elif isinstance(payload, ReadBatch):
            self.handle_read_batch(src, payload)

    # Handlers are separate methods so Byzantine variants can reuse or
    # selectively override them; a lying read reply overrides ``reply``,
    # which both read handlers answer from.

    def handle_write(self, client: Hashable, wr: WR) -> None:
        history = self.histories.get(wr.key)
        if history is None:
            history = self.history_for(wr.key)
        self.history_cells += history.store(wr.ts, wr.rnd, wr.value,
                                            wr.qc2_ids)
        if self.bounded_history:
            self._collect(client, history, wr.ts, wr.rnd)
        if self.history_cells > self.max_history_cells:
            self.max_history_cells = self.history_cells
        self.send(client, WrAck(wr.ts, wr.rnd, wr.key))

    def _collect(
        self, client: Hashable, history: History, ts: int, rnd: int
    ) -> None:
        """Advance one register's stable timestamp and GC below it.

        See the class docstring for the quorum-ack evidence rules:
        ``(ts, rnd)`` is what ``client``'s message stored in
        ``history``, which keeps the register's evidence beside its
        cells (``History.stable_ts`` / ``History.last_wr``).
        A late-arriving ``wr`` below the stable mark is stored (the ack
        must not depend on GC state) and collected again immediately,
        so superseded cells never re-materialize.

        A batch passes each key's highest element (per-key stamps are
        issued in increasing draw order).  Its elements are sent
        without the client blocking between them, so timestamps within
        a batch are **not** ack evidence for each other — only
        cross-message evidence counts: a ``rnd >= 2`` batch proves
        every element's round 1 was quorum-acked (the client blocked on
        a quorum of round-1 batch acks), and a new batch whose per-key
        last ``(ts, rnd)`` differs from the previous message's proves
        the previous round was quorum-acked.
        """
        stable = history.stable_ts
        advanced = stable
        if rnd >= 2 and ts > advanced:
            advanced = ts
        last_wr = history.last_wr
        prev = last_wr.get(client)
        if prev is not None and prev != (ts, rnd) and prev[0] > advanced:
            advanced = prev[0]
        last_wr[client] = (ts, rnd)
        if advanced > stable:
            history.stable_ts = advanced
            removed = history.gc_below(advanced)
        elif ts < stable:
            removed = history.gc_below(stable)
        else:
            removed = 0
        if removed:
            self.gc_removed += removed
            self.history_cells -= removed

    def reply(self, key: Hashable) -> HistoryView:
        """What this server answers a read of register ``key`` with."""
        history = self.histories.get(key)
        if history is None:
            history = self.history_for(key)
        return history.snapshot()

    def handle_read(self, client: Hashable, rd: RD) -> None:
        self.send(
            client, RdAck(rd.read_no, rd.rnd, self.reply(rd.key), rd.key)
        )

    def handle_write_batch(self, client: Hashable, wb: WriteBatch) -> None:
        """Apply every batch element in order, acknowledge once.

        Each element is stored exactly as its unbatched ``wr``
        equivalent (same round, same shared QC'2 ids); the single
        :class:`BatchAck` stands for per-element acks from the same
        responder, which is what keeps batch-level quorum decisions
        equal to per-element ones.
        """
        touched: Dict[Hashable, Tuple[History, int]] = {}
        for ts, value, key in wb.ops:
            history = self.history_for(key)
            self.history_cells += history.store(ts, wb.rnd, value, wb.sets)
            touched[key] = (history, ts)
        if self.bounded_history:
            for history, last_ts in touched.values():
                self._collect(client, history, last_ts, wb.rnd)
        if self.history_cells > self.max_history_cells:
            self.max_history_cells = self.history_cells
        self.send(client, BatchAck(wb.batch_no, wb.rnd))

    def handle_read_batch(self, client: Hashable, rb: ReadBatch) -> None:
        reply = self.reply
        self.send(client, ReadBatchAck(
            rb.read_no, rb.rnd, tuple([reply(key) for key in rb.keys])
        ))


class RateLimitedServer(StorageServer):
    """A benign server with finite service capacity.

    The capacity model behind the E16 capacity grids: serving a write
    costs ``write_cost`` simulated time units, a read ``read_cost``
    (i.e. the reciprocals of the node's capacities), and requests queue
    FIFO behind a single ``busy_until`` horizon — a message arriving
    while the server is busy is handled when the backlog drains.  An
    overloaded server therefore answers ever later, which is exactly
    how per-node load shows up as lost end-to-end throughput.

    Crashes still take effect at *service* time: a request queued
    behind the backlog is dropped if the server has crashed by the time
    it would be served.
    """

    def __init__(self, pid: Hashable, read_cost: float, write_cost: float,
                 bounded_history: bool = False):
        super().__init__(pid, bounded_history=bounded_history)
        if read_cost < 0 or write_cost < 0:
            raise ValueError("service costs must be non-negative")
        self.read_cost = float(read_cost)
        self.write_cost = float(write_cost)
        self.busy_until = 0.0

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, WR):
            self._serve(src, payload, self.handle_write,
                        self.write_cost)
        elif isinstance(payload, RD):
            self._serve(src, payload, self.handle_read,
                        self.read_cost)
        elif isinstance(payload, WriteBatch):
            # A batch still costs one service unit per element — the
            # capacity model charges work, not messages.
            self._serve(src, payload, self.handle_write_batch,
                        self.write_cost * len(payload.ops))
        elif isinstance(payload, ReadBatch):
            self._serve(src, payload, self.handle_read_batch,
                        self.read_cost * len(payload.keys))

    def _serve(self, client: Hashable, payload, handler, cost: float) -> None:
        done = max(self.sim.now, self.busy_until) + cost
        self.busy_until = done

        def finish() -> None:
            if not self.crashed:
                handler(client, payload)

        self.sim.call_at(done, finish)


class FabricatingServer(StorageServer):
    """Byzantine: advertises a fabricated pair in every read reply.

    The forged history claims ``⟨forged_ts, forged_value⟩`` was stored in
    slots 1 and 2 of whatever register is read.  A single such server
    must never cause a reader to return the fabricated value (``safe``
    requires a basic subset of confirmations).
    """

    benign = False

    def __init__(self, pid: Hashable, forged_ts: int, forged_value: Any):
        super().__init__(pid)
        forged = History()
        forged.store(forged_ts, 2, forged_value, frozenset())
        self._forged = forged.snapshot()

    def reply(self, key: Hashable) -> HistoryView:
        return self._forged


class ForgetfulServer(StorageServer):
    """Byzantine: rolls every register back to ``forged_state`` at a set
    time.

    Before the trigger it is indistinguishable from a benign server.
    ``forged_state=None`` rolls back to the initial state σ0.  A register
    first named after the trigger starts out forged too, so the lie
    covers the whole register space, held or not.
    """

    benign = False

    def __init__(
        self,
        pid: Hashable,
        trigger_time: float,
        forged_state: Optional[HistoryView] = None,
    ):
        super().__init__(pid)
        self.trigger_time = trigger_time
        self.forged_state = forged_state
        self.forged = False

    def bind(self, network):  # type: ignore[override]
        bound = super().bind(network)
        self.sim.call_at(self.trigger_time, self._trigger)
        return bound

    def _trigger(self) -> None:
        self.forged = True
        for history in self.histories.values():
            self._forge(history)

    def history_for(self, key: Hashable) -> History:
        history = self.histories.get(key)
        if history is None:
            history = super().history_for(key)
            if self.forged:
                self._forge(history)
        return history

    def _forge(self, history: History) -> None:
        """Roll one register back to the forged state."""
        if self.forged_state is None:
            history.clear()
        else:
            history.overwrite(self.forged_state)


class QuorumForgettingServer(ForgetfulServer):
    """Byzantine: at ``trigger_time``, erases the class-2 quorum ids
    stored in every register while keeping the timestamp/value pairs —
    it "forgets round 2 of rd" (Figure 4 ex4)."""

    def _forge(self, history: History) -> None:
        for cell, entry in history._cells.items():
            history._cells[cell] = Entry(entry.pair, frozenset())
