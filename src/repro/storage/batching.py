"""Batched wire messages shared by every storage protocol.

Cross-key operation batching amortizes one quorum round-trip over up to
``batch_size`` register operations: the client coalesces its next
pending writes (or reads) into a single :class:`WriteBatch` /
:class:`ReadBatch`, servers apply the elements **in batch order** and
acknowledge the whole batch once, and the client blocks on one indexed
``Condition`` per batch round instead of one per operation.

Why this preserves the per-op quorum-intersection argument: a server
processes a batch atomically and sends one ack, so every element's
effective responder set *is* the batch's responder set.  Any quorum
decision the client takes at batch granularity (majority reached,
class-1 quorum responded, QC'2 subset acked) therefore holds for each
element individually — a batched run is observationally a sequence of
per-element protocol instances that happen to share identical responder
sets.

**Per-element completion contract.**  Batched *reads* complete
element-wise, and each element takes the decision its unbatched read
takes over the same replies: it returns as soon as its own quorum
decisions are in, never waiting on the batch's slowest element.  Where
later protocol phases are already batch-granular (a kernel row that
always or never writes back: ABD, naive) the contract degenerates to
the whole batch completing at one instant; where elements genuinely
diverge it bites — fast-ABD's confirmed elements complete at the
collect instant while only the unconfirmed ones wait out the pre-write
write-back, and the RQS reader hands each element it resolves the
Figure 7 write-back plan its unbatched read would take (none when
``BCD₁`` holds), the elements of one plan writing back as one group —
a task of its own — concurrently with further collect rounds (see each
reader's ``read_batch``).  A lossy or contended quorum thus caps one element's
tail latency, not the batch's.  Stamps are still issued per element in
the client's draw order, and each wave — the elements that complete
together — reaches the trace (and the checker) in element order.

The message vocabulary is protocol-agnostic; each server class
interprets the payloads its own way:

* the count-quorum kernel (:mod:`repro.storage.abd`) — ``slot`` names
  the server slot every element is applied to under the ``ts >`` rule;
  read replies are, per key, the slots' ``Pair``s in slot order.
* RQS — ``sets`` carries the batch's shared QC'2 quorum-id set (a
  write) or its group's x1 set (a read write-back) and ``rnd`` the
  Figure 5 round; read replies are per-key history snapshots
  (``HistoryView``), each built by ``StorageServer.reply`` — the one
  seam a lying server overrides, so a batched read meets the lie an
  unbatched read meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Hashable, Tuple

from repro.sim.conditions import AckSet, ConditionMap
from repro.sim.wire import wire_payload

__all__ = [
    "WriteBatch",
    "BatchAck",
    "ReadBatch",
    "ReadBatchAck",
    "BatchAcks",
    "distinct_keys",
]


@wire_payload
@dataclass(frozen=True, slots=True)
class WriteBatch:
    """Up to ``batch_size`` write applications in one message.

    ``ops`` holds ``(ts, value, key)`` triples in the client's draw
    order; ``rnd`` is the protocol round this batch message belongs to
    (kernel: the write's round number, read write-backs: 2; RQS:
    Figure 5 rounds 1–3) and ``slot`` the kernel server slot the
    elements target (``""`` for RQS).  ``sets`` is the RQS batch's
    shared QC'2 set or its read write-back group's x1 set (empty
    frozenset elsewhere).
    """

    batch_no: int
    rnd: int
    slot: str
    ops: Tuple[Tuple[int, Any, Hashable], ...]
    sets: FrozenSet


@wire_payload
@dataclass(frozen=True, slots=True)
class BatchAck:
    """One server's acknowledgement of a whole :class:`WriteBatch`."""

    batch_no: int
    rnd: int


@wire_payload
@dataclass(frozen=True, slots=True)
class ReadBatch:
    """One collect round-trip covering ``keys`` (in batch order).

    ``rnd`` follows the unbatched convention: 0 is the multi-writer
    timestamp-discovery collect, >= 1 a read round.
    """

    read_no: int
    rnd: int
    keys: Tuple[Hashable, ...]


@wire_payload
@dataclass(frozen=True, slots=True)
class ReadBatchAck:
    """Per-key replies, positionally aligned with the batch's keys."""

    read_no: int
    rnd: int
    replies: Tuple[Any, ...]


class BatchAcks:
    """Per-client batch-ack bookkeeping: numbering plus one pooled
    :class:`AckSet` per ``(batch_no, rnd)``.

    ``record`` peeks rather than creates, so straggler acks for retired
    batches are dropped without allocating; ``close`` discards every
    round's set (the bounded-memory contract — also what feeds the
    condition pool for reuse by the next batch).
    """

    __slots__ = ("_next", "_acks")

    def __init__(self, label: str = "batch#{} rnd={}"):
        self._next = 0
        self._acks = ConditionMap(AckSet, label)

    def open(self) -> int:
        self._next += 1
        return self._next

    def responders(self, number: int, rnd: int) -> AckSet:
        return self._acks(number, rnd)

    def record(self, number: int, rnd: int, sender) -> None:
        acks = self._acks.peek(number, rnd)
        if acks is not None:
            acks.add(sender)

    def close(self, number: int, *rnds: int) -> None:
        for rnd in rnds:
            self._acks.discard(number, rnd)


def distinct_keys(elems) -> Tuple[Hashable, ...]:
    """The batch's distinct keys in first-appearance (draw) order —
    the key set one batched discovery collect covers."""
    return tuple(dict.fromkeys(key for _, key in elems))
