"""The count-quorum register kernel: ABD, fast-ABD and the broken greedy
algorithm as three rows of one table.

The paper's opening argument (Section 1.2, Figures 1–2) is that the
broken greedy algorithm and the correct fast variant are the *same*
crash-model register algorithm and differ only in how many servers
must have answered before an operation may skip its second round;
classic ABD (Attiya–Bar-Noy–Dolev) is the always-two-round-read
baseline both are measured against (experiment E12).  This module says
so in code: one message vocabulary, one slotted server, one writer and
one reader, driven by a :class:`RegisterProtocol` row (and wired, one
registry id per row, by :mod:`repro.scenarios.adapters`).

* :data:`ABD` — majority quorums, one write slot.  Writes take one
  round; reads take two rounds **always** (collect + write-back).  The
  paper's motivating observation is that no optimally-resilient atomic
  storage can make both reads and writes single-round in all cases
  [11]; this is the cost RQS avoids.
* :data:`FASTABD` — the Section 1.2 variant (``n=5, t=2, fast=4`` by
  default).  Servers keep **two** slots, ``pw`` (pre-write) and ``w``.
  ``write(v)`` pre-writes ``⟨ts, v⟩`` into every ``pw`` and waits out
  ``2Δ``; if ``fast`` servers (a class-1 quorum) acked it is done,
  otherwise round 2 writes ``w`` and completes on ``n − t`` acks.
  ``read()`` collects all slots from ``n − t`` servers (waiting out
  ``2Δ`` to hear from more), selects the highest-timestamped pair
  ``cmax`` and returns after round 1 iff ``cmax`` was seen in ``n − t``
  ``pw`` fields or in *some* ``w`` field; otherwise round 2 writes
  ``cmax`` back into ``pw``.  Correctness hinges on
  ``Q'1 ∩ Q'2 ∩ Q3 ≠ ∅`` for 4-element fast quorums (Figure 2(b)).
* :data:`NAIVE` — the *broken* algorithm of Figure 1, kept deliberately
  faithful to the counterexample: every operation completes in one
  round as soon as ``n − t`` servers respond and reads **never** write
  back.  With 3-of-5 fast quorums ``Q1 ∩ Q2 ∩ Q3 = ∅`` (Figure 2(a)),
  so scripted schedules drive it into a stale read that the atomicity
  checker flags.

The register space is keyed (independent slots per key, keys on every
message).  Multi-writer deployments (``n_writers > 1``) use the
standard MW-ABD lift — a quorum collect discovers the highest stored
timestamp and writes stamp ``(seq, writer_id)`` (see
:func:`~repro.storage.history.make_stamp`) — which leaves each row's
completion rule, naive's actual flaw included, untouched.  Single-writer
systems keep the historical bare counters and skip discovery.

A row is resolved into plain instance attributes when a process is
built; the kernel branches on those policy values only, never on which
row they came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import (
    Any, Callable, Collection, Dict, Hashable, List, NamedTuple, Optional,
    Tuple,
)

from repro.sim.conditions import AckSet, ConditionMap
from repro.sim.process import Process
from repro.sim.tasks import WaitUntil
from repro.sim.trace import Trace
from repro.sim.wire import wire_payload
from repro.storage.batching import (
    BatchAck,
    BatchAcks,
    ReadBatch,
    ReadBatchAck,
    WriteBatch,
    distinct_keys,
)
from repro.storage.history import DEFAULT_KEY, INITIAL_PAIR, Pair, new_cell
from repro.storage.stamping import DiscoveryInbox, StampIssuer

_TS = attrgetter("ts")

#: One server's reply for one key: its slots' pairs, in slot order.
SlotPairs = Tuple[Pair, ...]


# -- wire vocabulary ----------------------------------------------------------

@wire_payload
@dataclass(frozen=True, slots=True)
class SlotWrite:
    """Store ``⟨ts, value⟩`` in ``slot`` of register ``key`` (under the
    ``ts >`` rule)."""

    ts: int
    value: Any
    slot: str
    key: Hashable = DEFAULT_KEY


@wire_payload
@dataclass(frozen=True, slots=True)
class SlotWriteAck:
    ts: int
    slot: str
    key: Hashable = DEFAULT_KEY


@wire_payload
@dataclass(frozen=True, slots=True)
class SlotRead:
    read_no: int
    key: Hashable = DEFAULT_KEY


@wire_payload
@dataclass(frozen=True, slots=True)
class SlotReadAck:
    read_no: int
    pairs: SlotPairs
    key: Hashable = DEFAULT_KEY


# -- the protocol table -------------------------------------------------------

def majority(n: int, t: int) -> int:
    return n // 2 + 1


def all_but_t(n: int, t: int) -> int:
    return n - t


def always(cmax: Pair, replies: Collection[SlotPairs], quorum: int) -> bool:
    """Write back unconditionally (the second round ABD always pays)."""
    return True


def never(cmax: Pair, replies: Collection[SlotPairs], quorum: int) -> bool:
    """Return the collected maximum at once (naive's deliberate flaw)."""
    return False


def unless_confirmed(
    cmax: Pair, replies: Collection[SlotPairs], quorum: int
) -> bool:
    """Write back unless ``cmax`` is already safe to return: a quorum
    of the replies hold it in their first (pre-write) slot, or some
    reply holds it in a later (write) slot."""
    pre_written = sum(1 for pairs in replies if pairs[0] == cmax)
    written = any(cmax in pairs[1:] for pairs in replies)
    return not (pre_written >= quorum or written)


class WriteRound(NamedTuple):
    """One broadcast round of a write.

    The round stores the pair in ``slot`` and waits for a quorum of
    acks — and, with ``wait_out``, also for the ``2Δ`` timer so that
    more than a quorum can be heard.  With ``early_exit`` the write
    completes here if the deployment's ``fast`` ack count was reached
    and moves on to the next round otherwise; a round without it (a
    row's last) completes on its quorum.
    """

    slot: str
    wait_out: bool = False
    early_exit: bool = False


@dataclass(frozen=True)
class RegisterProtocol:
    """One count-quorum register algorithm, as data."""

    name: str
    #: The quorum threshold, from the deployment's ``(n, t)``.
    quorum: Callable[[int, int], int]
    #: Server slots per key, in reply order; read write-backs go to
    #: the first.
    slots: Tuple[str, ...]
    write_rounds: Tuple[WriteRound, ...]
    #: Whether a read's collect waits out ``2Δ`` beyond its quorum.
    collect_waits: bool
    #: ``(cmax, replies, quorum) -> bool``: must the read write
    #: ``cmax`` back before returning it?
    write_back: Callable[[Pair, Collection[SlotPairs], int], bool]


ABD = RegisterProtocol(
    name="abd",
    quorum=majority,
    slots=("w",),
    write_rounds=(WriteRound("w"),),
    collect_waits=False,
    write_back=always,
)

FASTABD = RegisterProtocol(
    name="fastabd",
    quorum=all_but_t,
    slots=("pw", "w"),
    write_rounds=(
        WriteRound("pw", wait_out=True, early_exit=True),
        WriteRound("w"),
    ),
    collect_waits=True,
    write_back=unless_confirmed,
)

NAIVE = RegisterProtocol(
    name="naive",
    quorum=all_but_t,
    slots=("w",),
    write_rounds=(WriteRound("w"),),
    collect_waits=False,
    write_back=never,
)

#: Protocol id → row; the scenario layer registers one adapter per entry.
PROTOCOLS: Dict[str, RegisterProtocol] = {
    row.name: row for row in (ABD, FASTABD, NAIVE)
}


# -- processes ----------------------------------------------------------------

class RegisterServer(Process):
    """Keeps, per key, the highest-timestamped pair seen in each slot."""

    def __init__(self, pid: Hashable, slots: Tuple[str, ...]):
        super().__init__(pid)
        self._initial = dict.fromkeys(slots, INITIAL_PAIR)
        self.slots: Dict[Hashable, Dict[str, Pair]] = {}

    def slots_for(self, key: Hashable) -> Dict[str, Pair]:
        """Register ``key``'s slot → pair mapping, created on first use
        (the handlers look a key up in ``slots`` first and call this only
        when it is missing)."""
        slots = self.slots.get(key)
        if slots is None:
            slots = self.slots[key] = dict(self._initial)
        return slots

    def on_message(self, src: Hashable, payload: Any) -> None:
        known = self.slots
        if isinstance(payload, SlotWrite):
            key = payload.key
            slots = known.get(key) or self.slots_for(key)
            if payload.ts > slots[payload.slot].ts:
                slots[payload.slot] = new_cell(
                    Pair, (payload.ts, payload.value)
                )
            self.send(src, SlotWriteAck(payload.ts, payload.slot, key))
        elif isinstance(payload, SlotRead):
            key = payload.key
            self.send(
                src,
                SlotReadAck(
                    payload.read_no,
                    tuple((known.get(key) or self.slots_for(key)).values()),
                    key,
                ),
            )
        elif isinstance(payload, WriteBatch):
            # Every element targets the batch's slot and is applied in
            # batch (draw) order; one ack for all.
            slot = payload.slot
            for ts, value, key in payload.ops:
                slots = known.get(key) or self.slots_for(key)
                if ts > slots[slot].ts:
                    slots[slot] = new_cell(Pair, (ts, value))
            self.send(src, BatchAck(payload.batch_no, payload.rnd))
        elif isinstance(payload, ReadBatch):
            self.send(
                src,
                ReadBatchAck(
                    payload.read_no,
                    payload.rnd,
                    tuple(
                        tuple((known.get(key) or self.slots_for(key)).values())
                        for key in payload.keys
                    ),
                ),
            )


class _RegisterClient(Process):
    """What the writer and the reader share: the thresholds resolved
    from a row, the ack bookkeeping and the query round."""

    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        protocol: RegisterProtocol,
        t: int,
        delta: float,
    ):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.name = protocol.name
        self.quorum = protocol.quorum(len(servers), t)
        self.timeout = 2.0 * delta
        # Slot-write responders per (key, ts, slot): a write's rounds,
        # a read's write-backs.
        self._acks = ConditionMap(AckSet, self.name + " key={} ts={} {}")
        # Numbered query rounds: read collects, MW timestamp discovery.
        self._queries = DiscoveryInbox(self.name + " query#{}")
        self._batches = BatchAcks(self.name + " batch#{} rnd={}")

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, SlotWriteAck):
            # peek, not create: acks straggling in after the operation
            # retired its responder set must not resurrect it (the
            # bounded-memory contract of streaming soaks).
            acks = self._acks.peek(payload.key, payload.ts, payload.slot)
            if acks is not None:
                acks.add(src)
        elif isinstance(payload, SlotReadAck):
            self._queries.record(payload.read_no, src, payload.pairs)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, src)
        elif isinstance(payload, ReadBatchAck):
            # Batched query replies: per key, the slot pairs.
            self._queries.record(payload.read_no, src, payload.replies)

    def _quorum_of(self, acks: AckSet, wait_out: bool):
        """The round's wait: a quorum of ``acks`` — after the ``2Δ``
        timer when the round waits out stragglers (one condition at a
        time, as the RQS writer's rounds wait)."""
        enough = acks.at_least(self.quorum)
        if wait_out:
            yield WaitUntil(self.sim.timer_at(self.sim.now + self.timeout))
        yield WaitUntil(enough)

    def _query(self, message_for: Callable[[int], Any], wait_out: bool):
        """One query round: broadcast ``message_for(number)`` and return
        sender → reply once a quorum answered.  Replies arriving after
        that are dropped — per-query state lives only while the round
        is in flight."""
        number = self._queries.open()
        responders = self._queries.responders(number)
        self.send_all(self.servers, message_for(number))
        yield from self._quorum_of(responders, wait_out)
        return self._queries.close(number)


class RegisterWriter(_RegisterClient):
    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        protocol: RegisterProtocol,
        t: int,
        fast: int,
        delta: float,
        writer_id: Optional[int] = None,
    ):
        super().__init__(pid, servers, trace, protocol, t, delta)
        #: ``(slot, wait_out, exit_at)`` per round: after the round's
        #: wait the write completes iff ``exit_at`` servers acked.
        self.rounds = tuple(
            (rnd.slot, rnd.wait_out, fast if rnd.early_exit else self.quorum)
            for rnd in protocol.write_rounds
        )
        self.stamps = StampIssuer(writer_id)

    @property
    def ts(self) -> int:
        return self.stamps.seq()

    def write(self, value: Any, key: Hashable = DEFAULT_KEY):
        record, = self.trace.begin(
            "write", self.pid, self.sim.now, ((value, key),)
        )
        if not self.stamps.multi_writer:
            ts, discovery_rounds = self.stamps.bare(key), 0
        else:
            # MW timestamp discovery (a quorum collect round).
            replies = yield from self._query(
                lambda number: SlotRead(number, key), False
            )
            observed = max(map(_TS, chain.from_iterable(replies.values())))
            ts, discovery_rounds = self.stamps.stamped(key, observed), 1
        # Surface the timestamp for the stamp-ordered online checker.
        record.meta["ts"] = ts
        for rnd, (slot, wait_out, exit_at) in enumerate(self.rounds, 1):
            acks = self._acks(key, ts, slot)
            self.send_all(self.servers, SlotWrite(ts, value, slot, key))
            yield from self._quorum_of(acks, wait_out)
            if len(acks) >= exit_at:
                break
        for slot, _, _ in self.rounds:
            self._acks.discard(key, ts, slot)
        self.trace.complete(
            (record,), self.sim.now, ("OK",), rnd + discovery_rounds
        )
        return record

    def write_batch(self, elems: List[Tuple[Any, Hashable]]):
        """The write's rounds, batched, for ``[(value, key), ...]``.

        Stamps are issued per element in draw order; multi-writer
        batches amortize one discovery collect over the batch's
        distinct keys.  The shared responder set makes every round's
        exit decision hold per element exactly as unbatched.  All
        elements complete together at batch end: one wave.
        """
        records = self.trace.begin("write", self.pid, self.sim.now, elems)
        if not self.stamps.multi_writer:
            stamps = [self.stamps.bare(key) for _, key in elems]
            discovery_rounds = 0
        else:
            keys = distinct_keys(elems)
            replies = yield from self._query(
                lambda number: ReadBatch(number, 0, keys), False
            )
            observed = {
                key: max(
                    pair.ts for per_key in replies.values()
                    for pair in per_key[i]
                )
                for i, key in enumerate(keys)
            }
            stamps = [
                self.stamps.stamped(key, observed[key]) for _, key in elems
            ]
            discovery_rounds = 1
        for record, ts in zip(records, stamps):
            record.meta["ts"] = ts
        ops = tuple(
            (ts, value, key) for ts, (value, key) in zip(stamps, elems)
        )
        number = self._batches.open()
        for rnd, (slot, wait_out, exit_at) in enumerate(self.rounds, 1):
            acks = self._batches.responders(number, rnd)
            self.send_all(
                self.servers, WriteBatch(number, rnd, slot, ops, frozenset())
            )
            yield from self._quorum_of(acks, wait_out)
            if len(acks) >= exit_at:
                break
        self._batches.close(number, *range(1, rnd + 1))
        self.trace.complete(
            records, self.sim.now, ("OK",) * len(records),
            rnd + discovery_rounds,
        )
        return records


class RegisterReader(_RegisterClient):
    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        protocol: RegisterProtocol,
        t: int,
        delta: float,
    ):
        super().__init__(pid, servers, trace, protocol, t, delta)
        self.collect_waits = protocol.collect_waits
        self.needs_write_back = protocol.write_back
        self.wb_slot = protocol.slots[0]
        # Per key, the timestamp of the newest write-back responder set
        # still retained.  Write-back timestamps are monotone per reader
        # (quorums intersect), so superseded sets can never be queried
        # again and are pruned — bounding state to O(keys) while keeping
        # the historical repeat-write-back fast path (same-timestamp
        # write-backs reuse accumulated acks).
        self._wb_ts: Dict[Hashable, int] = {}

    def read(self, key: Hashable = DEFAULT_KEY):
        record, = self.trace.begin(
            "read", self.pid, self.sim.now, ((None, key),)
        )
        replies = yield from self._query(
            lambda number: SlotRead(number, key), self.collect_waits
        )
        cmax = max(chain.from_iterable(replies.values()), key=_TS)
        record.meta["ts"] = cmax.ts
        rounds = 1
        if self.needs_write_back(cmax, replies.values(), self.quorum):
            previous = self._wb_ts.get(key)
            if previous is not None and previous != cmax.ts:
                self._acks.discard(key, previous, self.wb_slot)
            self._wb_ts[key] = cmax.ts
            wb_acks = self._acks(key, cmax.ts, self.wb_slot)
            self.send_all(
                self.servers, SlotWrite(cmax.ts, cmax.val, self.wb_slot, key)
            )
            yield WaitUntil(wb_acks.at_least(self.quorum))
            rounds = 2
        self.trace.complete((record,), self.sim.now, (cmax.val,), rounds)
        return record

    def read_batch(self, keys: List[Hashable]):
        """One batched collect; per-element write-back decisions from
        the shared replies, and only the elements that need it join one
        batched write-back.

        Completion is **per element**: elements that need no write-back
        complete at the collect instant (their quorum is full — waiting
        on the others' write-back would only inflate their tail), the
        rest when the write-back quorum-acks.  Under ``always`` and
        ``never`` the contract degenerates — acks are batch-granular,
        so every element's quorum fills at the same instant (the
        write-back ack, resp. the collect) and all complete there, in
        one wave.  Otherwise the batch completes in two waves: the
        elements that need no write-back, then the rest.
        """
        records = self.trace.begin(
            "read", self.pid, self.sim.now, [(None, key) for key in keys]
        )
        data = yield from self._query(
            lambda number: ReadBatch(number, 1, tuple(keys)),
            self.collect_waits,
        )
        # The two waves' records and results, and the write-back's
        # ``(ts, value, key)`` elements.
        done, done_values = [], []
        failing, failing_values, write_backs = [], [], []
        for i, record in enumerate(records):
            replies = [per_key[i] for per_key in data.values()]
            cmax = max(chain.from_iterable(replies), key=_TS)
            record.meta["ts"] = cmax.ts
            if self.needs_write_back(cmax, replies, self.quorum):
                failing.append(record)
                failing_values.append(cmax.val)
                write_backs.append((cmax.ts, cmax.val, keys[i]))
            else:
                done.append(record)
                done_values.append(cmax.val)
        if done:
            self.trace.complete(done, self.sim.now, done_values, 1)
        if failing:
            wb_no = self._batches.open()
            wb_acks = self._batches.responders(wb_no, 2)
            self.send_all(self.servers, WriteBatch(
                wb_no, 2, self.wb_slot, tuple(write_backs), frozenset(),
            ))
            yield WaitUntil(wb_acks.at_least(self.quorum))
            self._batches.close(wb_no, 2)
            self.trace.complete(failing, self.sim.now, failing_values, 2)
        return records
