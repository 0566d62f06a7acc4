"""Declarative workload operations for scenario specifications.

A workload is a tuple of operation literals.  Clients obey the paper's
well-formedness rule — no client invokes an operation before its previous
one completed — so operations addressed to the same client are run
sequentially, each starting no earlier than its scheduled time.
Operations on distinct clients run concurrently.

* :class:`Write` / :class:`Read` — storage operations on one register of
  the keyed space (writers and readers addressed by index; the default
  key preserves the historical single-register literals).
* :class:`Propose` — a consensus proposal by proposer index.
* :class:`Resync` — re-send the proposer's post-propose Sync (models a
  client retransmitting over lossy pre-GST channels).
* :class:`RandomMix` — a seeded random mix of writes and reads over a
  horizon (storage protocols); deterministic per scenario seed.  Keys
  are drawn from a ``uniform`` or ``zipfian`` distribution over the
  spec's ``n_keys`` registers, and writes are spread round-robin over
  the spec's ``n_writers`` writer clients.

A closed-loop :class:`RandomMix` has one expansion,
:meth:`RandomMix.stream` — an :class:`OpStream` of lazy per-client
iterators over one seeded draw, whose RNG consumption order is fixed
(every existing seed keeps its schedule).  A workload that mixes
explicit literals with a mix merges the same per-client views in.

Horizon-free runs (``ScenarioSpec.duration`` / ``max_ops``) skip the
closed-loop draw entirely: :func:`open_loop_stream` gives each client an
independent seeded generator that draws inter-arrival gaps and keys one
operation at a time — O(1) state per client, unbounded op counts.

Sharded soaks (``ScenarioSpec.shards > 1``) filter at this level:
:func:`shard_assignment` maps every key of ``range(n_keys)`` to a shard
deterministically from the spec — uniform draws keep the historical
crc32 rule (:func:`key_shard`), zipfian draws balance *expected load*
with a greedy LPT bin-pack over exact Fraction weights so hot keys
spread across shards — and both stream paths accept a ``shard=(index,
count)`` view that consumes the identical RNG stream while yielding
only in-shard ops — the union of shard schedules is a fixed partition
of the unsharded draw.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Any, Hashable, Iterator, List, Optional, Tuple, Union

from repro.errors import ScenarioError
from repro.storage.history import DEFAULT_KEY

#: Valid ``RandomMix.distribution`` names.
KEY_DISTRIBUTIONS = ("uniform", "zipfian")


def key_shard(key: Hashable, shards: int, seed: int = 0) -> int:
    """Deterministic key → shard assignment for sharded soaks.

    A pure crc32 function of the scenario seed and the key's ``repr``
    (stable across Python versions and processes, like
    :func:`client_seed`), so the union of per-shard schedules is a
    fixed partition of the unsharded draw: every client generator
    consumes the *full* RNG stream and yields exactly the ops whose key
    lands in its shard.
    """
    if shards < 1:
        raise ScenarioError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(f"shard:{seed}:{key!r}".encode()) % shards


def shard_assignment(
    n_keys: int,
    shards: int,
    seed: int = 0,
    distribution: str = "uniform",
    skew: float = 1.0,
) -> Tuple[int, ...]:
    """The deterministic key → shard table for a sharded soak.

    A pure function of ``(seed, n_keys, distribution, skew, shards)``
    that balances **expected load**, not key counts:

    * ``uniform`` — every key is drawn equally often, so the historical
      crc32 rule (:func:`key_shard`) already splits load evenly; the
      table is exactly that rule, keeping all pre-weighted sharded
      executions bit-identical.
    * ``zipfian`` — key ``k`` is drawn with weight ``1/(k+1)**skew``
      (the same base weights :class:`_KeyDrawer` samples from), so the
      hot keys are spread by a greedy LPT bin-pack: keys in descending
      weight order (crc32 tie-break, then key index) each go to the
      least-loaded shard, with shard loads accumulated as exact
      ``Fraction``s so the comparison never depends on float summation
      order.

    Either way the table only decides which shard *yields* an op —
    generators still consume the full RNG stream, so the union of the
    shard schedules stays a fixed partition of the unsharded draw.
    """
    if shards < 1:
        raise ScenarioError(f"shards must be >= 1, got {shards}")
    if n_keys < 1:
        raise ScenarioError(f"n_keys must be >= 1, got {n_keys}")
    if distribution != "zipfian" or n_keys == 1 or shards == 1:
        return tuple(key_shard(key, shards, seed) for key in range(n_keys))
    weights = [
        Fraction(1.0 / (key + 1) ** skew) for key in range(n_keys)
    ]
    order = sorted(
        range(n_keys),
        key=lambda key: (
            -weights[key],
            zlib.crc32(f"shard:{seed}:{key!r}".encode()),
            key,
        ),
    )
    loads = [Fraction(0)] * shards
    table = [0] * n_keys
    for key in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        table[key] = target
        loads[target] += weights[key]
    return tuple(table)


@dataclass(frozen=True)
class Write:
    """Writer ``writer`` writes ``value`` to register ``key``, starting
    no earlier than ``at``."""

    at: float
    value: Any
    key: Hashable = DEFAULT_KEY
    writer: int = 0


@dataclass(frozen=True)
class Read:
    """Reader ``reader`` reads register ``key``, starting no earlier
    than ``at``."""

    at: float
    reader: int = 0
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True)
class Propose:
    """Proposer ``proposer`` proposes ``value`` at time ``at``."""

    at: float
    value: Any
    proposer: int = 0


@dataclass(frozen=True)
class Resync:
    """Proposer ``proposer`` re-sends Sync/DecisionPull at time ``at``."""

    at: float
    proposer: int = 0


@dataclass(frozen=True)
class RandomMix:
    """``writes`` writes and ``reads`` reads at seeded-random times in
    ``[start, start + horizon)``; write values are sequential integers,
    reads are spread round-robin over the readers and writes round-robin
    over the writers.

    ``distribution`` picks each operation's register over the spec's
    ``n_keys``: ``"uniform"`` draws every key equally, ``"zipfian"``
    draws key ``k`` with weight ``1 / (k + 1) ** skew`` (key 0 hottest —
    the standard contention skew).  Single-key expansions draw no keys
    at all, so historical seeds reproduce the exact same schedules.

    ``batch_size`` makes storage clients coalesce up to that many
    pending operations into one batched round-trip (stamps still issued
    per batch element in the historical draw order); the default of 1
    is today's one-op-per-round-trip behavior, bit-identical to every
    existing seed.  Batching is a storage feature: consensus adapters
    reject mixes carrying it, as does a workload that mixes explicit
    literals with the mix.
    """

    writes: int
    reads: int
    horizon: float
    start: float = 0.0
    distribution: str = "uniform"
    skew: float = 1.0
    batch_size: int = 1

    def __post_init__(self):
        if self.distribution not in KEY_DISTRIBUTIONS:
            raise ScenarioError(
                f"unknown RandomMix distribution {self.distribution!r}; "
                f"valid: {', '.join(KEY_DISTRIBUTIONS)}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ScenarioError(
                f"RandomMix.batch_size must be an int >= 1, got "
                f"{self.batch_size!r} (1 = unbatched round-trips)"
            )
        if self.skew < 0:
            raise ScenarioError(
                f"RandomMix.skew must be >= 0, got {self.skew} "
                f"(zipfian weight is 1 / (k + 1) ** skew; a negative "
                f"skew would invert the contention profile)"
            )

    def stream(
        self,
        n_readers: int,
        seed: int,
        first_value: int = 1,
        n_keys: int = 1,
        n_writers: int = 1,
        shard: Optional[Tuple[int, int]] = None,
    ) -> "OpStream":
        """Lazy per-client schedules over one seeded draw (fixed RNG
        consumption order, round-robin client assignment; write values
        count up from ``first_value``).

        ``shard=(index, count)`` filters the *same* draw down to the
        ops whose key lands in shard ``index`` under :func:`key_shard`
        — times, values and keys are untouched, so shard streams union
        back to the unsharded schedule exactly."""
        return OpStream(
            self, n_readers, seed,
            first_value=first_value, n_keys=n_keys, n_writers=n_writers,
            shard=shard,
        )


WorkloadOp = Union[Write, Read, Propose, Resync, RandomMix]
Workload = Tuple[WorkloadOp, ...]


def _draw_keys(
    rng: random.Random, mix: RandomMix, count: int, n_keys: int
) -> List[int]:
    """``count`` register keys from the mix's keyspace distribution.

    Delegates to :class:`_KeyDrawer` — the single home of the
    uniform/zipfian draw, shared with the open-loop streams so closed-
    and open-loop runs of the same mix sample identical distributions.
    """
    drawer = _KeyDrawer(mix, n_keys)
    return [drawer.draw(rng) for _ in range(count)]


def _draw_schedule(
    mix: RandomMix, n_readers: int, seed: int, n_keys: int
) -> Tuple[List[float], List[Tuple[int, float]], List[int], List[int]]:
    """The seeded closed-loop draw behind :class:`OpStream`.

    Returns ``(write_times, read_slots, write_keys, read_keys)`` in the
    historical consumption order (write times first, then read times,
    then — only for multi-key expansions — write keys and read keys),
    which every pinned execution depends on.
    """
    if n_keys < 1:
        raise ScenarioError(f"n_keys must be >= 1, got {n_keys}")
    rng = random.Random(seed)
    write_times = sorted(
        mix.start + rng.uniform(0.0, mix.horizon) for _ in range(mix.writes)
    )
    read_slots: List[Tuple[int, float]] = []
    for index in range(mix.reads):
        reader = index % n_readers
        read_slots.append(
            (reader, mix.start + rng.uniform(0.0, mix.horizon))
        )
    # Key draws happen after every time draw, so single-key expansions
    # (which skip them) consume the identical random stream as the
    # pre-keyed code.
    if n_keys > 1:
        write_keys = _draw_keys(rng, mix, mix.writes, n_keys)
        read_keys = _draw_keys(rng, mix, mix.reads, n_keys)
    else:
        write_keys = [DEFAULT_KEY] * mix.writes
        read_keys = [DEFAULT_KEY] * mix.reads
    return write_times, read_slots, write_keys, read_keys


class OpStream:
    """Lazy per-client views of one closed-loop :class:`RandomMix` draw.

    Holds the compact draw arrays (times, key indices) once and hands
    out generators — clients never see materialized :class:`Write` /
    :class:`Read` objects or per-client op lists.  The draw is delayed
    until the first client pulls, and shared by all of them.

    ``writer_ops(w)`` yields writer ``w``'s ``(at, value, key)`` triples
    in start-time order (the round-robin subset of the globally
    time-sorted writes); ``reader_ops(r)`` yields reader ``r``'s
    ``(at, key)`` pairs sorted by start time.
    """

    def __init__(
        self,
        mix: RandomMix,
        n_readers: int,
        seed: int,
        first_value: int = 1,
        n_keys: int = 1,
        n_writers: int = 1,
        shard: Optional[Tuple[int, int]] = None,
    ):
        if n_writers < 1:
            raise ScenarioError(f"n_writers must be >= 1, got {n_writers}")
        if mix.reads > 0 and n_readers < 1:
            raise ScenarioError(
                f"RandomMix schedules {mix.reads} reads but the scenario has "
                f"no readers; set readers >= 1 (or reads=0)"
            )
        self.mix = mix
        self.n_readers = n_readers
        self.seed = seed
        self.first_value = first_value
        self.n_keys = n_keys
        self.n_writers = n_writers
        self.shard = shard
        self._draw = None
        self._shard_table: Optional[Tuple[int, ...]] = None

    def _in_shard(self, key: Hashable) -> bool:
        if self.shard is None:
            return True
        index, count = self.shard
        table = self._shard_table
        if table is None:
            table = self._shard_table = shard_assignment(
                self.n_keys, count, self.seed,
                self.mix.distribution, self.mix.skew,
            )
        if isinstance(key, int) and 0 <= key < len(table):
            return table[key] == index
        return key_shard(key, count, self.seed) == index

    def _schedule(self):
        if self._draw is None:
            self._draw = _draw_schedule(
                self.mix, self.n_readers, self.seed, self.n_keys
            )
        return self._draw

    @property
    def writers_with_ops(self) -> range:
        """Writer indices that receive at least one op (round-robin)."""
        return range(min(self.n_writers, self.mix.writes))

    @property
    def readers_with_ops(self) -> range:
        return range(min(self.n_readers, self.mix.reads))

    def writer_ops(self, writer: int) -> Iterator[Tuple[float, Any, Hashable]]:
        write_times, _, write_keys, _ = self._schedule()
        for index in range(writer, self.mix.writes, self.n_writers):
            if not self._in_shard(write_keys[index]):
                continue
            yield (
                write_times[index],
                self.first_value + index,
                write_keys[index],
            )

    def reader_ops(self, reader: int) -> Iterator[Tuple[float, Hashable]]:
        _, read_slots, _, read_keys = self._schedule()
        ops = [
            (time, read_keys[index])
            for index, (slot_reader, time) in enumerate(read_slots)
            if slot_reader == reader and self._in_shard(read_keys[index])
        ]
        ops.sort(key=lambda item: item[0])
        return iter(ops)


# -- horizon-free (open-loop) streams -----------------------------------------

class OpBudget:
    """A shared countdown of operations still allowed to start.

    ``None`` means unlimited (the run is bounded by ``duration``
    instead).  Clients draw from the budget *as they generate* their
    next op, in simulated-event order, so allocation is deterministic.
    """

    __slots__ = ("remaining",)

    def __init__(self, max_ops: Optional[int]):
        self.remaining = max_ops

    def take(self) -> bool:
        if self.remaining is None:
            return True
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def client_seed(seed: int, role: str, index: int) -> int:
    """A deterministic per-client RNG seed for open-loop streams —
    a pure crc32 function of the scenario seed and the client identity
    (stable across Python versions and processes, like
    :func:`repro.scenarios.sweeps.derive_seed`)."""
    return zlib.crc32(f"stream:{seed}:{role}:{index}".encode()) & 0x7FFFFFFF


class _KeyDrawer:
    """Per-client register draws from the mix's keyspace distribution.

    A draw calls the generator's primitives itself, as the
    :class:`random.Random` wrappers would: a uniform key is
    ``randrange(n_keys)``'s own rejection loop (``n_keys.bit_length()``
    bits, drawn again while they read ``>= n_keys``), a zipfian key one
    ``random()`` scaled onto the cumulative weights — the same values
    and the same generator state after every draw, one Python frame
    (``tests/scenarios/test_draw_oracle.py`` holds it to the wrappers).
    """

    def __init__(self, mix: RandomMix, n_keys: int):
        self.n_keys = n_keys
        self.bits = n_keys.bit_length()
        self.cumulative: Optional[List[float]] = None
        if n_keys > 1 and mix.distribution == "zipfian":
            weights = [1.0 / (k + 1) ** mix.skew for k in range(n_keys)]
            self.cumulative = list(accumulate(weights))

    def draw(self, rng: random.Random) -> Hashable:
        n_keys = self.n_keys
        if n_keys <= 1:
            return DEFAULT_KEY
        if self.cumulative is None:
            key = rng.getrandbits(self.bits)
            while key >= n_keys:
                key = rng.getrandbits(self.bits)
            return key
        return bisect_right(
            self.cumulative, rng.random() * self.cumulative[-1]
        )


def open_loop_stream(
    mix: RandomMix,
    role: str,
    index: int,
    count: int,
    seed: int,
    budget: OpBudget,
    duration: Optional[float],
    n_keys: int = 1,
    first_value: int = 1,
    shard: Optional[Tuple[int, int]] = None,
) -> Iterator[Tuple]:
    """One client's unbounded lazy op sequence for a horizon-free run.

    ``role`` is ``"writer"`` or ``"reader"``; ``count`` is how many
    clients share that role.  Each client draws independent uniform
    inter-arrival gaps whose mean matches the closed-loop density of the
    mix (``horizon / ops`` spread over the role's clients), plus one
    register per op from the mix's keyspace distribution — O(1) state,
    no materialized schedule.  Writer values use the closed-loop
    round-robin encoding (``first_value + index + i * count``), so
    per-key value sequences stay monotone for the online checker.

    Generation stops when the shared :class:`OpBudget` is exhausted or
    the next start time would fall at/after ``duration``.  Yields
    ``(at, value, key)`` triples for writers and ``(at, key)`` pairs
    for readers — the same per-client shapes :class:`OpStream` hands
    out, so the adapter consumes both modes identically.

    ``shard=(index, count)`` makes this client a shard-local view of
    the *same* generator: the full gap/key RNG stream is consumed in
    the identical order (times, values and keys match the unsharded
    stream op for op, including the round-robin value serials of
    filtered-out ops), but only ops whose key lands in the shard under
    :func:`shard_assignment` are yielded — and only those draw from
    the shard's op budget.
    """
    per_role_ops = mix.writes if role == "writer" else mix.reads
    if per_role_ops <= 0:
        return
    rng = random.Random(client_seed(seed, role, index))
    keys = _KeyDrawer(mix, n_keys)
    table: Tuple[int, ...] = ()
    if shard is not None:
        table = shard_assignment(
            n_keys, shard[1], seed, mix.distribution, mix.skew
        )
    # Mean gap that reproduces the closed-loop op density per client;
    # ``span * random()`` is ``uniform(0.0, span)`` bit for bit.
    span = 2.0 * (mix.horizon * count / per_role_ops)
    gap = rng.random
    at = mix.start
    serial = 0
    while True:
        at += span * gap()
        if duration is not None and at >= duration:
            return
        if shard is None:
            if not budget.take():
                return
            key = keys.draw(rng)
        else:
            key = keys.draw(rng)
            owner = (
                table[key]
                if isinstance(key, int) and 0 <= key < len(table)
                else key_shard(key, shard[1], seed)
            )
            if owner != shard[0]:
                serial += 1
                continue
            if not budget.take():
                return
        if role == "writer":
            yield at, first_value + index + serial * count, key
        else:
            yield at, key
        serial += 1
