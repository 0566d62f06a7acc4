"""Online (streaming) analysis: latency accumulators and windowed checking.

A million-operation soak cannot retain a million
:class:`~repro.sim.trace.OperationRecord` objects and latency samples
for a checker that runs at the end.  This module holds the streaming
counterparts, fed as operations begin and complete — one *wave* a call,
the records one client begins or completes at one instant
(:mod:`repro.sim.trace`):

* :class:`LatencyAccumulator` — count/mean/min/max plus a fixed-size
  :class:`QuantileReservoir` (Vitter's algorithm R, seeded: exact below
  capacity), taking a wave's identical samples in one call.  The mean
  is exact: an integer running sum over the samples' common denominator
  (:attr:`LatencyAccumulator.time_sum`).  Record-keeping runs replay their
  records through a fresh one
  (:meth:`~repro.analysis.latency.LatencySummary.from_records`).  Both
  carry an order-independent ``merge`` for sharded soaks
  (:mod:`repro.scenarios.sharding`): the result depends only on the
  multiset of parts, and is terminal (``observe`` on it raises).
* :class:`OnlineChecker` — the one windowed per-key register checker,
  single- and multi-writer alike.  The paper proves its storage atomic
  by exhibiting the timestamp order as the linearization, and every
  storage client surfaces that timestamp on ``record.ts``, so
  the checker is a Gibbons–Korach-style check over the total stamp
  order (the rules: its class docstring).  The window floor is the
  oldest in-flight invocation, the top of a lazily-deleted heap;
  anything older folds into per-key monotone bounds, so retained state
  is O(clients + keys) however long the run.  It is sound within its
  window: every violation it reports is real, one involving operations
  that overlap the window is caught, and a read older than the window
  is convicted through the monotone bound (as a stale read).
  :func:`check_history` replays a retained history through a fresh
  checker whose window never evicts: the exact post-hoc check of
  record-keeping runs (``RunResult.atomicity``).

The previous implementations are the references of differentials:
the scanning window and the ``Fraction``-per-operation accumulator in
``tests/analysis/test_completion_oracle.py``, the value-ordered
checker in ``tests/analysis/test_checker_oracle.py``.  Write values
must be unique per register — true of every
:class:`~repro.scenarios.workloads.RandomMix` workload, the only shape
the scenario runner wires the live checker to; :func:`check_history`
refuses a history that breaks it.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import field
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import itemgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import CheckerError
from repro.records import record
from repro.storage.history import BOTTOM

#: Default bounded-sample size of the quantile reservoir.  Runs with at
#: most this many completions per operation kind get *exact* quantiles.
RESERVOIR_CAPACITY = 2048

#: Violation examples a report carries (the count is always exact).
MAX_REPORTED = 20


def nearest_rank(sorted_samples, fraction: float) -> Optional[float]:
    """The nearest-rank percentile of an ascending sample list.

    A reservoir that still holds the full stream gives the exact
    percentile.
    """
    if not sorted_samples:
        return None
    rank = max(1, -(-len(sorted_samples) * fraction // 1))  # ceil
    return sorted_samples[int(rank) - 1]


class QuantileReservoir:
    """A fixed-size uniform sample of a stream (Vitter's algorithm R).

    Deterministic: the replacement RNG is seeded from the seed given
    at construction, and samples arrive in simulated-event order, so
    repeated runs of the same scenario produce identical estimates.
    The RNG (a few KB of Mersenne Twister state) is built at the first
    replacement: a reservoir that never overflows holds none.
    """

    __slots__ = (
        "capacity", "seen", "merged", "_samples", "_sorted", "_seed",
        "_rng",
    )

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 9973):
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        #: True on the result of :meth:`merge`, which takes no samples.
        self.merged = False
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._seed = seed
        self._rng: Optional[random.Random] = None

    def observe(self, sample: float, count: int) -> None:
        """Take ``count`` copies of ``sample``, one after the other."""
        if self.merged:
            raise ValueError(
                "a merged summary is terminal: it stands for a weighted "
                "subsample of its parts, and observing into it would skew "
                "every later quantile — observe into a part and merge again"
            )
        self._sorted = None
        seen = self.seen
        end = self.seen = seen + count
        if end > self.capacity and self._rng is None:
            self._rng = random.Random(self._seed)
        samples = self._samples
        while seen < end:
            seen += 1
            if seen <= self.capacity:
                samples.append(sample)
                continue
            # Past capacity, ``Random.randrange(seen)`` minus its argument
            # checks: the same rejection loop over the same
            # ``getrandbits`` draws, so the RNG stream and the retained
            # samples are what they always were.
            getrandbits = self._rng.getrandbits
            bits = seen.bit_length()
            slot = getrandbits(bits)
            while slot >= seen:
                slot = getrandbits(bits)
            if slot < self.capacity:
                samples[slot] = sample

    def quantile(self, fraction: float) -> Optional[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return nearest_rank(self._sorted, fraction)

    @classmethod
    def merge(
        cls,
        reservoirs: Iterable["QuantileReservoir"],
        capacity: Optional[int] = None,
        seed: int = 9973,
    ) -> "QuantileReservoir":
        """Merge independent reservoirs into one, **order-independently**.

        The result depends only on the *multiset* of inputs (shard
        completion order is nondeterministic): every candidate sample
        is sorted by ``(value, weight)`` before any randomness, and
        only when they overflow ``capacity`` is an Efraimidis–Spirakis
        weighted subsample drawn (weight: the share of its stream a
        sample stands for, ``seen / len(samples)``) with an RNG seeded
        from the merged totals.  While the union fits it *is* the
        merge, so merged quantiles equal the single-stream ones.  The
        result is terminal: a further :meth:`observe` would treat the
        weighted subsample as a prefix, so it raises.
        """
        parts = [r for r in reservoirs if r.seen]
        if capacity is None:
            if not parts:
                raise ValueError("merge needs a capacity or a non-empty part")
            capacity = parts[0].capacity
        merged = cls(capacity, seed)
        merged.merged = True
        merged.seen = sum(part.seen for part in parts)
        candidates: List[Tuple[float, float]] = []
        for part in parts:
            weight = part.seen / len(part._samples)
            candidates.extend((value, weight) for value in part._samples)
        candidates.sort()
        if len(candidates) <= capacity:
            merged._samples = [value for value, _ in candidates]
            return merged
        rng = random.Random(zlib.crc32(
            f"reservoir-merge:{seed}:{merged.seen}:{len(candidates)}"
            .encode()
        ))
        keyed = [
            (rng.random() ** (1.0 / weight), index)
            for index, (_, weight) in enumerate(candidates)
        ]
        keyed.sort(reverse=True)
        merged._samples = sorted(
            candidates[index][0] for _, index in keyed[:capacity]
        )
        return merged


class LatencyAccumulator:
    """Online latency aggregation for one operation kind: count,
    min/max/sum of round counts, min/max and the *exact* sum of
    completion times, and a bounded quantile reservoir — O(reservoir
    capacity) memory however long the run.

    The exact sum is an integer count ``_time_units`` of ``1 /
    _time_scale``, the least common denominator of the samples so far
    (on a simulated run, the largest power of two seen: every ``float``
    is dyadic) — the number a running ``Fraction`` holds
    (:attr:`time_sum` builds it) at an integer multiply-add a wave.
    """

    __slots__ = (
        "kind", "count", "rounds_sum", "min_rounds", "max_rounds",
        "_time_units", "_time_scale",
        "min_time", "max_time", "reservoir",
    )

    def __init__(self, kind: str, capacity: int = RESERVOIR_CAPACITY):
        self.kind = kind
        self.count = 0
        self.rounds_sum = 0
        self.min_rounds: Optional[int] = None
        self.max_rounds: Optional[int] = None
        self._time_units = 0
        self._time_scale = 1
        self.min_time: Optional[float] = None
        self.max_time: Optional[float] = None
        self.reservoir = QuantileReservoir(capacity)

    def observe(self, rounds: int, elapsed: float, count: int) -> None:
        """Fold ``count`` completed operations with the same ``rounds``
        and ``elapsed`` (one wave) into the summary."""
        # First, so that a merged (terminal) summary refuses the sample
        # before any of it is counted.
        self.reservoir.observe(elapsed, count)
        self.count += count
        self.rounds_sum += rounds * count
        if self.min_rounds is None or rounds < self.min_rounds:
            self.min_rounds = rounds
        if self.max_rounds is None or rounds > self.max_rounds:
            self.max_rounds = rounds
        units, scale = elapsed.as_integer_ratio()
        have = self._time_scale
        if scale != have:
            if have % scale:
                # Finer than (or foreign to) every sample so far.
                finer = lcm(have, scale)
                self._time_units *= finer // have
                self._time_scale = have = finer
            units *= have // scale
        self._time_units += units * count
        if self.min_time is None or elapsed < self.min_time:
            self.min_time = elapsed
        if self.max_time is None or elapsed > self.max_time:
            self.max_time = elapsed

    @property
    def time_sum(self) -> Fraction:
        """The exact sum of every observed completion time."""
        return Fraction(self._time_units, self._time_scale)

    @property
    def mean_rounds(self) -> Optional[float]:
        if not self.count:
            return None
        return round(self.rounds_sum / self.count, 3)

    @property
    def mean_time(self) -> Optional[float]:
        if not self.count:
            return None
        return round(float(self.time_sum / self.count), 6)

    def quantile(self, fraction: float) -> Optional[float]:
        return self.reservoir.quantile(fraction)

    @classmethod
    def merge(
        cls,
        accumulators: Iterable["LatencyAccumulator"],
        kind: Optional[str] = None,
    ) -> "LatencyAccumulator":
        """Merge per-shard accumulators of one kind, order-independently.

        Counts, round sums, min/max bounds and the exact rational time
        sum are commutative, so the merged mean is Fraction-exact — the
        union of shard streams yields the same ``mean_time`` to the
        last bit as a single-process run over the same completions.
        Quantiles delegate to :meth:`QuantileReservoir.merge` (exact
        while every shard stayed below reservoir capacity).  Like a
        merged reservoir the result is terminal: :meth:`observe` raises.
        """
        parts = list(accumulators)
        if not parts:
            raise ValueError("merge needs at least one accumulator")
        kinds = {part.kind for part in parts}
        if kind is None:
            if len(kinds) != 1:
                raise ValueError(
                    f"merge mixes operation kinds {sorted(kinds)}; "
                    f"pass kind= explicitly"
                )
            kind = parts[0].kind
        merged = cls(kind, parts[0].reservoir.capacity)
        merged.count = sum(part.count for part in parts)
        merged.rounds_sum = sum(part.rounds_sum for part in parts)
        merged._time_units, merged._time_scale = sum(
            (part.time_sum for part in parts), Fraction(0)
        ).as_integer_ratio()
        for name, pick in (
            ("min_rounds", min), ("max_rounds", max),
            ("min_time", min), ("max_time", max),
        ):
            bounds = [
                value for part in parts
                if (value := getattr(part, name)) is not None
            ]
            setattr(merged, name, pick(bounds) if bounds else None)
        merged.reservoir = QuantileReservoir.merge(
            (part.reservoir for part in parts),
            capacity=merged.reservoir.capacity,
        )
        return merged


# -- the windowed online checker ----------------------------------------------

@record(frozen=True)
class OnlineViolation:
    """One safety violation caught by the windowed checker."""

    rule: str
    key: Hashable
    description: str

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"[{self.rule}] key={self.key!r}: {self.description}"


@record
class OnlineReport:
    """The register checker's verdict for one execution, streamed or
    replayed (:func:`check_history`).

    ``max_retained`` is the sampled high-water mark of everything the
    checker holds — the bounded-memory exhibit CI gates on.
    ``overrun_unchecked`` counts operations that outlived the window (a
    stuck client's): skipped, never misjudged against newer bounds.
    ``claim`` is the semantics judged: ``"regular"`` ran every rule but
    ``read-inversion``, so its :attr:`verdict` reads ``"regular"`` when
    no rule fired, and :attr:`atomic` is never true.
    """

    checked_writes: int
    checked_reads: int
    violation_count: int
    violations: Tuple[OnlineViolation, ...]  # first few, for reporting
    keys: Tuple[Hashable, ...]
    max_retained: int  # high-water mark of retained per-key entries
    overrun_unchecked: int = 0
    mode: str = "sw"  # label: "sw" (one writer) | "mw" (several)
    #: Exact violation count per key (keys without one are absent).
    key_violations: Dict[Hashable, int] = field(default_factory=dict)
    claim: str = "atomic"  # "atomic" | "regular"

    @property
    def atomic(self) -> bool:
        return self.claim == "atomic" and self.violation_count == 0

    @property
    def verdict(self) -> str:
        """The sweep-table verdict string: the claim (``"atomic"`` /
        ``"regular"``) when it held, else ``"violation"``."""
        return "violation" if self.violation_count else self.claim

    def as_metrics(self) -> Dict[str, Any]:
        """The portable metrics view of this verdict, as embedded in
        :func:`repro.scenarios.result.soak_row`."""
        return {
            "atomic": self.atomic,
            "violations": self.violation_count,
            "keys_checked": len(self.keys),
            "checker_max_retained": self.max_retained,
            "checker_mode": self.mode,
        }


@record(frozen=True)
class OnlineRefusal:
    """A structured reason why a run carries no online verdict.

    The scenario runner attaches one wherever it declines to wire an
    online checker, so ``RunResult.online is None`` always comes with a
    machine-readable explanation instead of a bare refusal.
    """

    reason: str  # short token, e.g. "workload-shape"
    detail: str  # human-readable explanation

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"online checker not wired ({self.reason}): {self.detail}"


class _KeyState:
    """Bounded per-register state: windowed writes plus monotone bounds.

    The window maps *stamps* to their writes, the cummax series carry
    stamps, and reads whose write is still in flight park on the (per
    run unique) value until the write completes and reveals its stamp.
    """

    __slots__ = (
        "window", "inflight", "evicted", "parked", "writer_stamp",
        "write_times", "write_stamps", "read_times", "read_stamps",
        "base_write_bound", "base_read_bound", "pruned_at",
    )

    def __init__(self):
        # The floor of the last prune, while nothing was added *below
        # it* to the window or the series since (None otherwise):
        # pruning to the same floor again can then fold nothing — an
        # entry at or above the floor is one that prune keeps.
        self.pruned_at: Optional[float] = None
        # stamp -> (invoked_at, completed_at, value) for windowed writes.
        self.window: Dict[int, Tuple[float, float, Any]] = {}
        # value -> invoked_at of begun-but-incomplete writes.
        self.inflight: Dict[Any, float] = {}
        # Values of writes evicted from the window while in flight:
        # reads returning them are skipped (overrun), never misjudged.
        self.evicted: set = set()
        # value -> [(reader process, claimed stamp), ...] of reads that
        # returned an in-flight write; resolved at write completion.
        self.parked: Dict[Any, List[Tuple[Any, int]]] = {}
        # writer process -> highest stamp it completed on this register.
        self.writer_stamp: Dict[Any, int] = {}
        # Cummax series of completed write/read stamps, completion-
        # ordered, bisected by the bound queries below.
        self.write_times: List[float] = []
        self.write_stamps: List[int] = []
        self.read_times: List[float] = []
        self.read_stamps: List[int] = []
        # Folded-away window prefix: the highest stamp guaranteed
        # visible to every still-checkable operation.
        self.base_write_bound: Optional[int] = None
        self.base_read_bound: Optional[int] = None

    def write_bound(self, before: float) -> Optional[int]:
        """Highest stamp whose write completed strictly before ``before``."""
        index = bisect_left(self.write_times, before)
        if index:
            return self.write_stamps[index - 1]
        return self.base_write_bound

    def read_bound(self, before: float) -> Optional[int]:
        """Highest stamp returned by a read completed strictly before
        ``before``."""
        index = bisect_left(self.read_times, before)
        if index:
            return self.read_stamps[index - 1]
        return self.base_read_bound

    def prune(self, floor: float) -> None:
        """Fold state older than the window ``floor`` into the bounds."""
        self.pruned_at = floor
        index = bisect_left(self.write_times, floor)
        if index:
            self.base_write_bound = self.write_stamps[index - 1]
            del self.write_times[:index]
            del self.write_stamps[:index]
        index = bisect_left(self.read_times, floor)
        if index:
            self.base_read_bound = self.read_stamps[index - 1]
            del self.read_times[:index]
            del self.read_stamps[:index]
        if self.base_write_bound is not None and self.window:
            bound = self.base_write_bound
            stale = [
                stamp
                for stamp, (_, completed_at, _value) in self.window.items()
                if completed_at < floor and stamp < bound
            ]
            for stamp in stale:
                del self.window[stamp]

    def retained(self) -> int:
        """Windowed entries (the bounds and the per-writer stamps are a
        fixed O(writers) per key, not part of the high-water mark)."""
        return (
            len(self.window)
            + len(self.inflight)
            + len(self.evicted)
            + sum(len(waiting) for waiting in self.parked.values())
            + len(self.write_times)
            + len(self.read_times)
        )


class OnlineChecker:
    """Windowed online safety checking for keyed register histories.

    Subscribed to a :class:`~repro.sim.trace.Trace` it consumes
    operation records as they begin and complete and never stores the
    history.  All rules run over the protocols' totally ordered stamps
    (bare per-key counters for a single writer, ``seq·2²⁰ + writer_id``
    — :func:`repro.storage.history.make_stamp` — for several), which
    every storage client surfaces on ``record.ts`` before
    completing an operation.  Checked per key, as operations complete:

    * **stamp-reuse** — two completed writes must never share a stamp;
    * **writer-order** — the stamps one writer process completes on a
      register strictly increase in completion order (each writer
      issues its own stamps in draw order — also across the elements of
      a batch, which share one wire interval);
    * **stamp-order** — a write's stamp must exceed the stamp of every
      write that completed before it was invoked (quorum discovery
      guarantees this for intersecting-quorum protocols);
    * **fabrication** — a read's returned (value, stamp) must match a
      write of this register;
    * **future-read** — a read must not return a write invoked only
      after the read completed, whether that write has completed since
      or is still in flight;
    * **stale-read** — a read's stamp must not be below the highest
      stamp whose write completed before the read was invoked (and ⊥
      reads must not follow any completed write);
    * **read-inversion** — a read's stamp must not be below the highest
      stamp returned by a read that completed before this one started;
    * **missing-stamp** — an operation completed without a stamp.

    A read returning a value whose write is still in flight is legal
    (the write may linearize before the read); the claimed-stamp match
    is deferred until the write completes.  The window floor is the
    oldest in-flight invocation, so every bound consulted for a
    completing operation is exact.

    ``mode`` is a label copied onto the report (``"mw"`` for
    multi-writer specs); it selects nothing.  ``claim`` is the
    semantics the protocol claims, declared by its adapter:
    ``"atomic"`` runs every rule, ``"regular"`` (Lamport's regular
    register, Section 6's reader) every rule but ``read-inversion``.
    """

    #: An in-flight op older than this many ops evicts from the window
    #: (a stuck client must not pin the floor and regrow O(ops) state).
    OVERRUN_OPS = 5_000
    #: Completions between global prune/measure sweeps (amortizes the
    #: O(keys) sweep to O(1) per completion).
    SWEEP_EVERY = 256

    def __init__(
        self, mode: str = "sw", overrun_ops: int = OVERRUN_OPS,
        claim: str = "atomic",
    ):
        if claim not in ("atomic", "regular"):
            raise ValueError(
                f"the register checker judges 'atomic' or 'regular', "
                f"not {claim!r}"
            )
        self.mode = mode
        self.overrun_ops = overrun_ops
        self.claim = claim
        self._inversions = claim == "atomic"
        self.checked_writes = 0
        self.checked_reads = 0
        self.violation_count = 0
        self.key_violations: Dict[Hashable, int] = {}
        self.overrun_unchecked = 0
        self.violations: List[OnlineViolation] = []
        self.max_retained = 0
        self._keys: Dict[Hashable, _KeyState] = {}
        # op_id -> invoked_at of every in-flight storage operation; its
        # minimum is the window floor.
        self._pending: Dict[int, float] = {}
        # The same pairs as a min-heap of (invoked_at, op_id): the floor
        # is its top.  Entries of ops that left ``_pending`` stay until
        # they surface or ``_evict_overrun`` rebuilds the heap, so it
        # holds at most in-flight + overrun_ops + 1.
        self._invocations: List[Tuple[float, int]] = []
        # No in-flight op has a smaller id: while the overrun horizon
        # is below it there is nothing to evict and nothing to look at.
        self._oldest_op_id = -1
        # op_id -> (key, value) of in-flight writes, for eviction.
        self._pending_writes: Dict[int, Tuple[Hashable, Any]] = {}
        # Ops evicted from the window (stuck clients): skipped, never
        # misjudged, if they eventually complete.
        self._overrun: set = set()
        self._max_op_id = -1
        self._floor = float("-inf")
        self._since_sweep = 0

    # -- trace subscription ---------------------------------------------------

    def on_begin(self, records) -> None:
        """Open one wave's storage operations, in element order."""
        for record in records:
            kind = record.kind
            if kind != "read" and kind != "write":
                continue
            op_id = record.op_id
            invoked_at = record.invoked_at
            self._pending[op_id] = invoked_at
            # Begin *times* need not increase (a hand-fed trace may
            # register a write before a read that started earlier), so
            # the floor is a heap's top, not the first entry.
            heappush(self._invocations, (invoked_at, op_id))
            if op_id > self._max_op_id:
                self._max_op_id = op_id
            elif op_id < self._oldest_op_id:
                self._oldest_op_id = op_id
            if kind == "write":
                key = record.key
                self._pending_writes[op_id] = key, record.value
                state = self._keys.get(key) or self._state(key)
                state.inflight[record.value] = invoked_at

    def on_complete(self, records) -> None:
        """Judge one wave's storage operations, in element order.

        Everything after the rule — the eviction check, the floor, the
        prune, the sweep count — runs after *each* element, so a wave
        leaves exactly the state its elements one by one would."""
        pending = self._pending
        for record in records:
            kind = record.kind
            if kind != "read" and kind != "write":
                continue
            op_id = record.op_id
            if op_id in self._overrun:
                # The window moved past this stuck op and its bounds are
                # gone: judging it could flag legal behaviour.  Skip it,
                # visibly.
                self._overrun.discard(op_id)
                self.overrun_unchecked += 1
                continue
            if kind == "write":
                self._complete_write(record)
            else:
                self._complete_read(record)
            pending.pop(op_id, None)
            # Evict stuck in-flight ops so they cannot pin the floor and
            # regrow O(ops) retained state (the crashed-reader case).
            if self._max_op_id - self.overrun_ops > self._oldest_op_id:
                self._evict_overrun()
            # The floor is the oldest invocation still in flight: drop
            # the heap entries of ops gone since (each popped once).
            invocations = self._invocations
            while invocations and invocations[0][1] not in pending:
                heappop(invocations)
            floor = self._floor = (
                invocations[0][0] if invocations else record.completed_at
            )
            state = self._keys[record.key]
            if state.pruned_at != floor:
                state.prune(floor)
            # Periodic global sweep: prune every key to the floor and
            # sample the retained state (O(keys) every SWEEP_EVERY).
            self._since_sweep += 1
            if self._since_sweep >= self.SWEEP_EVERY:
                self._sweep()

    def _evict_overrun(self) -> None:
        """Evict every in-flight op the overrun horizon has passed.

        The one place the in-flight set is walked: reached only when
        the horizon passes the oldest op seen by the previous walk,
        i.e. about once per ``overrun_ops`` begins on a run whose
        clients all make progress.  The walk leaves the heap holding
        exactly the in-flight set, which is what bounds its length.
        """
        pending = self._pending
        horizon = self._max_op_id - self.overrun_ops
        for op_id in [op_id for op_id in pending if op_id < horizon]:
            self._evict(op_id)
        self._oldest_op_id = min(pending, default=self._max_op_id + 1)
        # A sorted list is a heap.
        self._invocations = sorted(
            (invoked_at, op_id) for op_id, invoked_at in pending.items()
        )

    def _evict(self, op_id: int) -> None:
        """Move one stuck op out of the window; reads parked on a stuck
        write can no longer be resolved and count as skipped."""
        del self._pending[op_id]
        self._overrun.add(op_id)
        entry = self._pending_writes.pop(op_id, None)
        if entry is not None:
            key, value = entry
            state = self._state(key)
            state.inflight.pop(value, None)
            state.evicted.add(value)
            self.overrun_unchecked += len(state.parked.pop(value, ()))

    def _sweep(self) -> None:
        self._since_sweep = 0
        floor = self._floor
        retained = len(self._pending) + len(self._overrun)
        for state in self._keys.values():
            if state.pruned_at != floor:
                state.prune(floor)
            retained += state.retained()
        if retained > self.max_retained:
            self.max_retained = retained

    # -- the rules ------------------------------------------------------------

    def _state(self, key: Hashable) -> _KeyState:
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyState()
        return state

    def _complete_write(self, record) -> None:
        self.checked_writes += 1
        self._pending_writes.pop(record.op_id, None)
        state = self._keys.get(record.key) or self._state(record.key)
        state.inflight.pop(record.value, None)
        waiting = state.parked.pop(record.value, ())
        stamp = record.ts
        if stamp is None:
            self._flag(
                "missing-stamp",
                record.key,
                f"write {record.value!r} completed without a protocol "
                "stamp in record.ts",
            )
            self.overrun_unchecked += len(waiting)
            return
        bound = state.write_bound(record.invoked_at)
        own = state.writer_stamp.get(record.process)
        if stamp in state.window:
            self._flag(
                "stamp-reuse",
                record.key,
                f"write {record.value!r} completed with stamp {stamp}, "
                f"already used by write {state.window[stamp][2]!r}",
            )
        elif own is not None and stamp <= own:
            self._flag(
                "writer-order",
                record.key,
                f"write {record.value!r} by {record.process} completed "
                f"with stamp {stamp} after its own write with stamp "
                f"{own} (a writer's stamps must increase in completion "
                f"order)",
            )
        elif bound is not None and stamp <= bound:
            self._flag(
                "stamp-order",
                record.key,
                f"write {record.value!r} got stamp {stamp} although a "
                f"write with stamp {bound} completed before it was "
                f"invoked (stamps must respect real-time order)",
            )
        if own is None or stamp > own:
            state.writer_stamp[record.process] = stamp
        pruned_at = state.pruned_at
        if pruned_at is not None and record.completed_at < pruned_at:
            state.pruned_at = None
        state.window[stamp] = (
            record.invoked_at, record.completed_at, record.value
        )
        if not state.write_stamps or stamp > state.write_stamps[-1]:
            state.write_times.append(record.completed_at)
            state.write_stamps.append(stamp)
        for process, claimed in waiting:
            if claimed != stamp:
                self._flag(
                    "fabrication",
                    record.key,
                    f"read by {process} returned {record.value!r} "
                    f"with stamp {claimed}, but its write carried "
                    f"stamp {stamp}",
                )

    def _complete_read(self, record) -> None:
        self.checked_reads += 1
        state = self._keys.get(record.key) or self._state(record.key)
        value = record.result
        write_bound = state.write_bound(record.invoked_at)
        read_bound = (
            state.read_bound(record.invoked_at) if self._inversions else None
        )
        if value is BOTTOM:
            if write_bound is not None:
                self._flag(
                    "stale-read",
                    record.key,
                    f"read by {record.process} returned ⊥ although a "
                    f"write with stamp {write_bound} completed before it "
                    f"started",
                )
            elif read_bound is not None:
                self._flag(
                    "read-inversion",
                    record.key,
                    f"read by {record.process} returned ⊥ although a "
                    f"preceding read returned stamp {read_bound}",
                )
            return
        stamp = record.ts
        if stamp is None:
            self._flag(
                "missing-stamp",
                record.key,
                f"read by {record.process} returned {value!r} without a "
                "protocol stamp in record.ts",
            )
            return
        stale = write_bound is not None and stamp < write_bound
        if stale:
            self._flag(
                "stale-read",
                record.key,
                f"read by {record.process} returned {value!r} with stamp "
                f"{stamp} although a write with stamp {write_bound} "
                f"completed before it started",
            )
        if read_bound is not None and stamp < read_bound:
            self._flag(
                "read-inversion",
                record.key,
                f"read by {record.process} returned {value!r} with stamp "
                f"{stamp} although a preceding read returned stamp "
                f"{read_bound}",
            )
        entry = state.window.get(stamp)
        if entry is not None:
            write_invoked, _, written_value = entry
            if written_value != value:
                self._flag(
                    "fabrication",
                    record.key,
                    f"read by {record.process} returned {value!r} with "
                    f"stamp {stamp}, but that stamp's write wrote "
                    f"{written_value!r}",
                )
            elif write_invoked > record.completed_at:
                self._flag_future_read(record)
        elif value in state.inflight:
            # Legal unless the write began only after the read ended:
            # it may linearize before this read.  Defer the
            # claimed-stamp match to the write's completion.
            if state.inflight[value] > record.completed_at:
                self._flag_future_read(record)
            state.parked.setdefault(value, []).append(
                (record.process, stamp)
            )
        elif value in state.evicted:
            # The write outlived the window; its stamp is unknowable
            # now.  Skip, visibly, instead of misjudging.
            self.overrun_unchecked += 1
            return
        else:
            if not stale:
                # Not a windowed write, not in flight, not superseded
                # by a newer completed write (folded out of the window,
                # flagged above): nothing ever wrote this pair.
                self._flag(
                    "fabrication",
                    record.key,
                    f"read by {record.process} returned {value!r} with "
                    f"stamp {stamp}, which no write of this register "
                    f"produced",
                )
            # A pair the window cannot vouch for must not become the
            # bound later reads are held to.
            return
        if not state.read_stamps or stamp > state.read_stamps[-1]:
            pruned_at = state.pruned_at
            if pruned_at is not None and record.completed_at < pruned_at:
                state.pruned_at = None
            state.read_times.append(record.completed_at)
            state.read_stamps.append(stamp)

    def _flag_future_read(self, record) -> None:
        self._flag(
            "future-read",
            record.key,
            f"read by {record.process} returned {record.result!r}, whose "
            f"write was invoked only after the read completed",
        )

    def _flag(self, rule: str, key: Hashable, description: str) -> None:
        self.violation_count += 1
        self.key_violations[key] = self.key_violations.get(key, 0) + 1
        if len(self.violations) < MAX_REPORTED:
            self.violations.append(OnlineViolation(rule, key, description))

    # -- reporting ------------------------------------------------------------

    def report(self) -> OnlineReport:
        self._sweep()   # final measurement (runs shorter than a sweep)
        return OnlineReport(
            checked_writes=self.checked_writes,
            checked_reads=self.checked_reads,
            violation_count=self.violation_count,
            violations=tuple(self.violations),
            keys=tuple(sorted(self._keys, key=repr)),
            max_retained=self.max_retained,
            overrun_unchecked=self.overrun_unchecked,
            mode=self.mode,
            key_violations=dict(self.key_violations),
            claim=self.claim,
        )


def check_history(
    records: Iterable, mode: str = "sw", claim: str = "atomic"
) -> OnlineReport:
    """Judge a retained history with a fresh :class:`OnlineChecker`.

    The storage records are replayed in time order — at one instant
    every begin before any completion (operations touching at an
    instant are concurrent), completions by ``op_id`` — and the window
    evicts nothing (``overrun_ops`` above every op id), so
    ``overrun_unchecked`` is 0 and the verdict is the exact one over
    the whole history: the protocol's stamp order, checked as the
    linearization.  Other kinds (propose / learn) carry no register
    semantics and are skipped.

    Raises :class:`~repro.errors.CheckerError` when a key has a value
    written twice or ⊥ written: reads are matched to writes by value.
    """
    ops = [r for r in records if r.kind == "read" or r.kind == "write"]
    written = set()
    for record in ops:
        if record.kind != "write":
            continue
        if record.value is BOTTOM:
            raise CheckerError("⊥ is outside the write domain")
        if (record.key, record.value) in written:
            raise CheckerError(
                f"duplicate written value {record.value!r} on key "
                f"{record.key!r}; the checker requires distinct write "
                f"values per register"
            )
        written.add((record.key, record.value))
    events = [(r.invoked_at, 0, r.op_id, r) for r in ops]
    events += [(r.completed_at, 1, r.op_id, r) for r in ops if r.complete]
    events.sort(key=itemgetter(0, 1, 2))
    checker = OnlineChecker(
        mode, overrun_ops=max((r.op_id for r in ops), default=0) + 1,
        claim=claim,
    )
    for _, completion, _, record in events:
        if completion:
            checker.on_complete((record,))
        else:
            checker.on_begin((record,))
    return checker.report()
