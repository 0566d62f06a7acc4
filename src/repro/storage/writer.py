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
  **timestamp-discovery round** — the writer reuses the read protocol
  (``rd`` with ``rnd = 0``) to collect a quorum of history snapshots
  and picks ``seq`` above everything stored.  Any completed write's
  timestamp sits in slot 1 at a full quorum, and any two quorums
  intersect in a correct server (Property 1), so discovery never misses
  a completed predecessor; Byzantine inflation of the reported maximum
  only advances the sequence space, which is harmless.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

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
from repro.storage.messages import RD, RdAck, WR, WrAck
from repro.storage.stamping import DiscoveryInbox, StampIssuer

QuorumId = FrozenSet[Hashable]


class StorageWriter(Process):
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
        super().__init__(pid)
        self.rqs = rqs
        self.trace = trace if trace is not None else Trace()
        self.timeout = 2.0 * delta
        self.stamps = StampIssuer(writer_id)
        #: Optional :class:`~repro.core.strategy.QuorumSelector`.  When
        #: set, each write draws one quorum from the strategy and sends
        #: only to its members; when ``None`` (the default and the
        #: paper's model) every round broadcasts to the ground set.
        self.selector = selector
        self._acks = ConditionMap(AckSet, "wr key={} ts={} rnd={}")
        self._discovery = DiscoveryInbox("write ts-discovery#{}")
        self._batches = BatchAcks("wr batch#{} rnd={}")

    @property
    def writer_id(self) -> Optional[int]:
        return self.stamps.writer_id

    @property
    def ts(self) -> int:
        """The default register's latest sequence number (SWMR compat)."""
        return self.stamps.seq()

    # -- network ---------------------------------------------------------------

    def on_message(self, src: Hashable, payload: Any) -> None:
        if isinstance(payload, WrAck):
            # peek, not create: a straggler ack for a completed write
            # must not resurrect its pruned responder set (bounded
            # memory on streaming soaks).
            acks = self._acks.peek(payload.key, payload.ts, payload.rnd)
            if acks is not None:
                acks.add(src)
        elif isinstance(payload, RdAck) and payload.rnd == 0:
            self._discovery.record(payload.read_no, src, payload.history)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, src)
        elif isinstance(payload, ReadBatchAck) and payload.rnd == 0:
            self._discovery.record(payload.read_no, src, payload.replies)

    def acks(self, ts: int, rnd: int, key: Hashable = DEFAULT_KEY) -> AckSet:
        """The responder set for one round (a signalling ``set``)."""
        return self._acks(key, ts, rnd)

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
            observed = yield from self._discover(key, target)
            ts, extra_rounds = self.stamps.stamped(key, observed), 1
        # Surface the timestamp for the stamp-ordered online checker
        # (set before completion so trace observers see it).
        record.ts = ts

        # Round 1 (Figure 5 lines 2-3).
        yield from self._round(ts, value, frozenset(), 1, key, target)
        round1 = self.acks(ts, 1, key)
        if self.rqs.contains_quorum(round1, cls=1):
            self._retire(ts, key)
            self.trace.complete(
                (record,), self.sim.now, ("OK",), 1 + extra_rounds
            )
            return record

        # Lines 4-5: remember fully-acking class-2 quorums.
        qc2_prime = frozenset(self.rqs.responding_quorums(round1, cls=2))

        # Round 2 (lines 6-7).
        yield from self._round(ts, value, qc2_prime, 2, key, target)
        round2 = self.acks(ts, 2, key)
        if any(q2 <= round2 for q2 in qc2_prime):
            self._retire(ts, key)
            self.trace.complete(
                (record,), self.sim.now, ("OK",), 2 + extra_rounds
            )
            return record

        # Round 3 (lines 8-9).
        yield from self._round(ts, value, frozenset(), 3, key, target)
        self._retire(ts, key)
        self.trace.complete(
            (record,), self.sim.now, ("OK",), 3 + extra_rounds
        )
        return record

    def _retire(self, ts: int, key: Hashable) -> None:
        """Drop the completed write's per-round responder sets, keeping
        writer state O(in-flight writes) on streaming runs."""
        for rnd in (1, 2, 3):
            self._acks.discard(key, ts, rnd)

    def _targets(self, target):
        """The servers one round contacts: the drawn quorum under a
        strategy, the full ground set otherwise."""
        if target is None:
            return self.rqs.servers
        return sorted(target, key=repr)

    def _discover(self, key: Hashable, target=None):
        """MW timestamp discovery: the highest stored timestamp for
        ``key`` at some responding quorum (the ``rnd = 0`` read round)."""
        number = self._discovery.open()
        self.send_all(self._targets(target), RD(number, 0, key))
        yield WaitUntil(
            self._discovery.responders(number).includes_quorum(
                self.rqs.contains_quorum
            )
        )
        views = self._discovery.close(number)
        return max(view.max_timestamp() for view in views.values())

    def _round(
        self,
        ts: int,
        value: Any,
        qc2_prime: FrozenSet[QuorumId],
        rnd: int,
        key: Hashable,
        target=None,
    ):
        """``round(i)`` (Figure 5 lines 10-12): send to all servers (or
        the drawn quorum), then (rounds 1-2) wait out the 2Δ timer and
        wait for a quorum of acks."""
        self.send_all(
            self._targets(target), WR(ts, value, qc2_prime, rnd, key)
        )
        quorum_acked = self.acks(ts, rnd, key).includes_quorum(
            self.rqs.contains_quorum
        )
        if rnd < 3:
            yield WaitUntil(self.sim.timer_at(self.sim.now + self.timeout))
        yield WaitUntil(quorum_acked)

    # -- batched protocol --------------------------------------------------------

    def write_batch(self, elems: List[Tuple[Any, Hashable]]):
        """Up to ``batch_size`` writes through one Figure 5 round
        structure: stamps per element in draw order, one
        :class:`WriteBatch` broadcast per round, one responder set per
        round.  Because every server applies all elements before its
        single ack, the batch-level class-1 / QC'2 / round-2 decisions
        coincide exactly with each element's unbatched decisions over
        the same responder set.  Under a strategy, one quorum draw
        covers the whole batch.  The batch begins and completes as one
        wave."""
        records = self.trace.begin("write", self.pid, self.sim.now, elems)
        target = self.selector.next_write() if self.selector else None
        if not self.stamps.multi_writer:
            stamps = [self.stamps.bare(key) for _, key in elems]
            extra_rounds = 0
        else:
            observed = yield from self._discover_batch(
                distinct_keys(elems), target
            )
            stamps = [
                self.stamps.stamped(key, observed[key]) for _, key in elems
            ]
            extra_rounds = 1
        for record, ts in zip(records, stamps):
            record.ts = ts
        ops = tuple(
            (ts, value, key) for ts, (value, key) in zip(stamps, elems)
        )
        number = self._batches.open()
        targets = self._targets(target)

        # Round 1 (Figure 5 lines 2-3, batch-wide).
        yield from self._batch_round(number, ops, frozenset(), 1, targets)
        round1 = self._batches.responders(number, 1)
        if self.rqs.contains_quorum(round1, cls=1):
            return self._finish_batch(number, records, 1 + extra_rounds)

        # Lines 4-5: the class-2 quorums that fully acked round 1.
        qc2_prime = frozenset(self.rqs.responding_quorums(round1, cls=2))

        # Round 2 (lines 6-7).
        yield from self._batch_round(number, ops, qc2_prime, 2, targets)
        round2 = self._batches.responders(number, 2)
        if any(q2 <= round2 for q2 in qc2_prime):
            return self._finish_batch(number, records, 2 + extra_rounds)

        # Round 3 (lines 8-9).
        yield from self._batch_round(number, ops, frozenset(), 3, targets)
        return self._finish_batch(number, records, 3 + extra_rounds)

    def _finish_batch(self, number: int, records, rounds: int):
        self._batches.close(number, 1, 2, 3)
        self.trace.complete(
            records, self.sim.now, ("OK",) * len(records), rounds
        )
        return records

    def _discover_batch(self, keys: Tuple[Hashable, ...], target=None):
        """One MW discovery collect over the batch's distinct keys —
        per-key highest stored timestamps at some responding quorum."""
        number = self._discovery.open()
        self.send_all(self._targets(target), ReadBatch(number, 0, keys))
        yield WaitUntil(
            self._discovery.responders(number).includes_quorum(
                self.rqs.contains_quorum
            )
        )
        views = self._discovery.close(number)
        return {
            key: max(
                snapshots[i].max_timestamp()
                for snapshots in views.values()
            )
            for i, key in enumerate(keys)
        }

    def _batch_round(self, number, ops, qc2_prime, rnd, targets):
        self.send_all(targets, WriteBatch(number, rnd, "", ops, qc2_prime))
        quorum_acked = self._batches.responders(number, rnd).includes_quorum(
            self.rqs.contains_quorum
        )
        if rnd < 3:
            yield WaitUntil(self.sim.timer_at(self.sim.now + self.timeout))
        yield WaitUntil(quorum_acked)
