"""The storage writer (Figure 5).

A write takes at most three rounds:

1. Round 1 writes ``⟨ts, v⟩`` to slot 1 of all servers and waits out the
   ``2Δ`` timer, then for a quorum of acks — the extra wait lets a
   class-1 quorum assemble, in which case the write returns immediately.
   The two waits are one condition at a time, timer first: both end in
   the wake pass of the later one's instant, as a wait on their
   conjunction would.
2. Otherwise the class-2 quorums that fully acked round 1 are remembered
   in ``QC'2`` and round 2 writes to slot 2 carrying those quorum ids.
   If some quorum of ``QC'2`` acks round 2, the write returns.
3. Otherwise round 3 writes to slot 3 and returns on any quorum of acks
   (no timer: nothing faster can be detected any more).

The register space is keyed: every write addresses one register and all
per-key state — timestamps, server histories, responder sets — is
independent (the default key reproduces the paper's single register
bit-for-bit).

Writers come in two modes:

* **Single-writer** (``writer_id=None``, the paper's SWMR model): the
  unique writer keeps a bare per-key sequence counter, monotonically
  increasing across its writes — the historical encoding, unchanged.
* **Multi-writer** (``writer_id`` an index): timestamps are stamped
  ``(seq, writer_id)`` via :func:`~repro.storage.history.make_stamp`
  (totally ordered across writers), and each write is preceded by a
  **timestamp-discovery round** — one batched read collect
  (``ReadBatch`` with ``rnd = 0``, over a batch's distinct keys or a
  single write's one key) gathers a quorum of history snapshots and
  the writer picks ``seq`` above everything stored.  Any completed write's
  timestamp sits in slot 1 at a full quorum, and any two quorums
  intersect in a correct server (Property 1), so discovery never misses
  a completed predecessor; Byzantine inflation of the reported maximum
  only advances the sequence space, which is harmless.
"""

from __future__ import annotations

from typing import (
    Any, FrozenSet, Hashable, List, Optional, Sequence, Tuple,
)

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import AckSet, ConditionMap
from repro.sim.process import Process
from repro.sim.tasks import WaitUntil
from repro.sim.trace import Trace
from repro.storage.batching import (
    BatchAck,
    BatchAcks,
    ReadBatch,
    ReadBatchAck,
    WriteBatch,
    distinct_keys,
)
from repro.storage.history import DEFAULT_KEY
from repro.storage.messages import WR, WrAck
from repro.storage.stamping import DiscoveryInbox, StampIssuer

QuorumId = FrozenSet[Hashable]


class StorageClient(Process):
    """What the RQS writer and reader share, as
    :class:`~repro.storage.abd._RegisterClient` is for the count-quorum
    kernel: the trace, the ``2Δ`` timeout, the optional quorum selector,
    the servers one round contacts and the batch-ack bookkeeping."""

    def __init__(
        self,
        pid: Hashable,
        rqs: RefinedQuorumSystem,
        trace: Optional[Trace],
        delta: float,
        selector,
    ):
        super().__init__(pid)
        self.rqs = rqs
        self.trace = trace if trace is not None else Trace()
        self.timeout = 2.0 * delta
        #: Optional :class:`~repro.core.strategy.QuorumSelector`.  When
        #: set, each operation draws one quorum from the strategy and
        #: sends only to its members (every round of that operation
        #: shares the draw); when ``None`` (the default and the paper's
        #: model) every round broadcasts to the ground set.
        self.selector = selector
        self._batches = BatchAcks()

    def _targets(self, target):
        """The servers one round contacts: the drawn quorum under a
        strategy, the full ground set otherwise."""
        if target is None:
            return self.rqs.servers
        return sorted(target, key=repr)


class StorageWriter(StorageClient):
    """A writer client (unique in SWMR mode, indexed in MW mode)."""

    def __init__(
        self,
        pid: Hashable,
        rqs: RefinedQuorumSystem,
        trace: Optional[Trace] = None,
        delta: float = 1.0,
        writer_id: Optional[int] = None,
        selector=None,
    ):
        super().__init__(pid, rqs, trace, delta, selector)
        self.stamps = StampIssuer(writer_id)
        self._acks = ConditionMap(AckSet, "wr key={} ts={} rnd={}")
        self._discovery = DiscoveryInbox("write ts-discovery#{}")

    # -- network ---------------------------------------------------------------

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, WrAck):
            # peek, not create: a straggler ack for a completed write
            # must not resurrect its pruned responder set (bounded
            # memory on streaming soaks).
            acks = self._acks.peek(payload.key, payload.ts, payload.rnd)
            if acks is not None:
                acks.add(src)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, src)
        elif isinstance(payload, ReadBatchAck) and payload.rnd == 0:
            self._discovery.record(payload.read_no, src, payload.replies)

    # -- protocol ----------------------------------------------------------------

    def write(self, value: Any, key: Hashable = DEFAULT_KEY):
        """Coroutine implementing ``write(v)`` on one register — spawn on
        the simulator.

        Returns the operation's :class:`~repro.sim.trace.OperationRecord`.
        MW-mode writes spend one extra round trip on timestamp
        discovery, counted in the record's ``rounds``.
        """
        record, = self.trace.begin(
            "write", self.pid, self.sim.now, ((value, key),)
        )
        # One strategy draw per operation: discovery and all rounds of
        # this write target the same drawn quorum.
        target = self.selector.next_write() if self.selector else None
        if not self.stamps.multi_writer:
            ts, extra_rounds = self.stamps.bare(key), 0
        else:
            (ts,) = yield from self._discover_batch(((value, key),), target)
            extra_rounds = 1
        # Surface the timestamp for the stamp-ordered online checker
        # (set before completion so trace observers see it).
        record.ts = ts
        targets = self._targets(target)

        def send_round(rnd, qc2_prime):
            self.send_all(targets, WR(ts, value, qc2_prime, rnd, key))
            return self._acks(key, ts, rnd)

        rounds = yield from self._figure5(send_round)
        # Drop the round responder sets: writer state stays
        # O(in-flight writes) on streaming runs.
        for rnd in (1, 2, 3):
            self._acks.discard(key, ts, rnd)
        self.trace.complete(
            (record,), self.sim.now, ("OK",), rounds + extra_rounds
        )
        return record

    def _figure5(self, send_round):
        """Rounds 1-3 of Figure 5, for one write or one batch:
        ``send_round(rnd, qc2_prime)`` sends round ``rnd`` and returns
        the responder set that counts its acks.  Returns the round the
        write completed in."""
        # Round 1 (lines 2-3).
        round1 = yield from self._round(send_round, 1, frozenset())
        if self.rqs.contains_quorum(round1, cls=1):
            return 1

        # Lines 4-5: remember fully-acking class-2 quorums.
        qc2_prime = frozenset(self.rqs.responding_quorums(round1, cls=2))

        # Round 2 (lines 6-7).
        round2 = yield from self._round(send_round, 2, qc2_prime)
        if any(q2 <= round2 for q2 in qc2_prime):
            return 2

        # Round 3 (lines 8-9).
        yield from self._round(send_round, 3, frozenset())
        return 3

    def _round(self, send_round, rnd: int, qc2_prime: FrozenSet[QuorumId]):
        """``round(i)`` (Figure 5 lines 10-12): send to all servers (or
        the drawn quorum), then (rounds 1-2) wait out the 2Δ timer and
        wait for a quorum of acks.  Returns the round's responders."""
        acks = send_round(rnd, qc2_prime)
        quorum_acked = acks.includes_quorum(self.rqs.contains_quorum)
        if rnd < 3:
            yield WaitUntil(self.sim.timer_at(self.sim.now + self.timeout))
        yield WaitUntil(quorum_acked)
        return acks

    # -- batched protocol --------------------------------------------------------

    def write_batch(self, elems: List[Tuple[Any, Hashable]]):
        """Up to ``batch_size`` writes through one Figure 5 round
        structure: stamps per element in draw order, one
        :class:`WriteBatch` broadcast per round, one responder set per
        round.  Because every server applies all elements before its
        single ack, the batch-level class-1 / QC'2 / round-2 decisions
        coincide exactly with each element's unbatched decisions over
        the same responder set — :meth:`_figure5` takes them for both.
        Under a strategy, one quorum draw covers the whole batch.  The
        batch begins and completes as one wave."""
        records = self.trace.begin("write", self.pid, self.sim.now, elems)
        target = self.selector.next_write() if self.selector else None
        if not self.stamps.multi_writer:
            stamps = [self.stamps.bare(key) for _, key in elems]
            extra_rounds = 0
        else:
            stamps = yield from self._discover_batch(elems, target)
            extra_rounds = 1
        for record, ts in zip(records, stamps):
            record.ts = ts
        ops = tuple(
            (ts, value, key) for ts, (value, key) in zip(stamps, elems)
        )
        number = self._batches.open()
        targets = self._targets(target)

        def send_round(rnd, qc2_prime):
            self.send_all(targets, WriteBatch(number, rnd, "", ops, qc2_prime))
            return self._batches.responders(number, rnd)

        rounds = yield from self._figure5(send_round)
        self._batches.close(number, 1, 2, 3)
        self.trace.complete(
            records, self.sim.now, ("OK",) * len(records),
            rounds + extra_rounds,
        )
        return records

    def _discover_batch(
        self, elems: Sequence[Tuple[Any, Hashable]], target
    ):
        """MW timestamp discovery for a write or a batch (the
        ``rnd = 0`` read round): one collect over the elements'
        distinct keys, and each element's stamp, in draw order, above
        the highest timestamp some responding quorum stores for its
        key."""
        keys = distinct_keys(elems)
        number = self._discovery.open()
        self.send_all(self._targets(target), ReadBatch(number, 0, keys))
        yield WaitUntil(
            self._discovery.responders(number).includes_quorum(
                self.rqs.contains_quorum
            )
        )
        views = self._discovery.close(number)
        observed = {
            key: max(
                snapshots[i].max_timestamp()
                for snapshots in views.values()
            )
            for i, key in enumerate(keys)
        }
        return [self.stamps.stamped(key, observed[key]) for _, key in elems]
