"""Differential oracle for the one windowed checker.

Every streamed run is judged by the stamp-ordered
:class:`~repro.analysis.streaming.OnlineChecker`.  The value-ordered
checker single-writer runs used before it — "the single writer's
sequence is the order" — lives on *only here*, verbatim, as
:class:`ReferenceValueOrderedChecker` (with its ``_KeyState`` and
``_ordered_less``).  Both subscribe to one ``Trace`` and consume the
same simulator-shaped single-writer keyed history: begins and
completions in non-decreasing time, a sequential or batched writer
drawing global value serials and per-key bare stamps, one to four
readers whose results an adversary picks (the latest completed write,
one still in flight, an older one, one long folded out of the window, a
value nothing wrote, ⊥), optionally a stuck reader that outlives the
window.  After **every** completion they must agree on ``atomic``, on
the checked / skipped counts and on the rules that completion was
convicted of, reading ``stamp-order`` as ``writer-order`` (for one
writer both say: its stamps did not increase) — with one named excess:
a read the reference convicts through the folded bound alone
(``stale-read`` / ``fabrication``, after which it stops looking) the
shipped checker still holds to the read bound and may also convict of
``read-inversion``.  Seeded bugs in the shipped checker must each be
caught by the same comparison on a named scripted history; the
generated histories alone kill five of the seven — a future read of an
in-flight write and one writer's overlapping writes completing out of
order are histories no client-consistent schedule contains, which is
why multi-writer soaks never met them.

What the generator leaves out on purpose, each pinned by a test of its
own instead:

* a stuck *write* — the reference keeps a never-completed write in its
  window forever and judges reads of its value by value order; the
  shipped checker evicts it and counts those reads in
  ``overrun_unchecked``, because a stamp that was never confirmed
  cannot be compared (``test_mw_online_checker.py::
  test_evicted_in_flight_write_skips_later_reads_visibly``);
* a writer that goes backwards *after the window folded* — the
  reference's per-writer order is its pruned cummax series, so past a
  fold it compares against nothing; the shipped checker keeps one stamp
  per writer (``test_past_a_fold_only_the_stamp_order_remembers_the_writer``;
  inside the window both convict: scripted history
  ``writer-goes-backwards-inside-the-window``).
"""

import itertools
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Hashable, List, Optional, Tuple

import pytest
from hypothesis import strategies as st

from repro.analysis.streaming import (
    OnlineChecker,
    OnlineReport,
    OnlineViolation,
    _KeyState as ShippedKeyState,
)
from repro.sim.trace import Trace
from repro.storage.history import BOTTOM
from tests.differential import agree, assert_killed, each_mutant


# -- the reference: the value-ordered checker, verbatim ------------------------

class _KeyState:
    """Bounded per-register state: windowed writes plus monotone bounds."""

    __slots__ = (
        "written", "write_times", "write_values",
        "read_times", "read_values", "base_write_bound", "base_read_bound",
    )

    def __init__(self):
        # value -> (invoked_at, completed_at) for writes still in window.
        self.written: Dict[Any, Tuple[float, float]] = {}
        # Completed writes, completion-ordered; values are monotone for
        # a sequential single writer, so these are cummax series.
        self.write_times: List[float] = []
        self.write_values: List[Any] = []
        # Running max of completed read versions, completion-ordered.
        self.read_times: List[float] = []
        self.read_values: List[Any] = []
        # Folded-away window prefix: the newest value guaranteed visible
        # to (written before) every still-checkable operation.
        self.base_write_bound: Optional[Any] = None
        self.base_read_bound: Optional[Any] = None

    def write_bound(self, before: float) -> Optional[Any]:
        """Newest value whose write completed strictly before ``before``."""
        index = bisect_left(self.write_times, before)
        if index:
            return self.write_values[index - 1]
        return self.base_write_bound

    def read_bound(self, before: float) -> Optional[Any]:
        """Newest value returned by a read completed strictly before
        ``before``."""
        index = bisect_left(self.read_times, before)
        if index:
            return self.read_values[index - 1]
        return self.base_read_bound

    def prune(self, floor: float) -> None:
        """Fold state older than the window ``floor`` into the bounds."""
        index = bisect_left(self.write_times, floor)
        if index:
            self.base_write_bound = self.write_values[index - 1]
            del self.write_times[:index]
            del self.write_values[:index]
        index = bisect_left(self.read_times, floor)
        if index:
            self.base_read_bound = self.read_values[index - 1]
            del self.read_times[:index]
            del self.read_values[:index]
        if self.base_write_bound is not None and self.written:
            bound = self.base_write_bound
            stale = [
                value
                for value, (_, completed_at) in self.written.items()
                if completed_at is not None
                and completed_at < floor
                and _ordered_less(value, bound)
            ]
            for value in stale:
                del self.written[value]

    def retained(self) -> int:
        return (
            len(self.written) + len(self.write_times) + len(self.read_times)
        )


def _ordered_less(left: Any, right: Any) -> bool:
    try:
        return left < right
    except TypeError:
        return False


class ReferenceValueOrderedChecker:
    """Windowed online safety checking for single-writer keyed histories.

    Subscribe it to a :class:`~repro.sim.trace.Trace`
    (``trace.subscribe(on_begin=..., on_complete=...)``); it consumes
    operation records as they begin and complete and never stores the
    history.  See the module docstring for the invariants and the
    windowing trade.
    """

    #: An in-flight op older than this many ops evicts from the window
    #: (a stuck client must not pin the floor and regrow O(ops) state).
    OVERRUN_OPS = 5_000
    #: Completions between global prune/measure sweeps (amortizes the
    #: O(keys) sweep to O(1) per completion).
    SWEEP_EVERY = 256
    #: Report mode token; the MW subclass overrides both of these.
    mode = "sw"
    key_state_factory = _KeyState

    def __init__(self, max_reported: int = 20,
                 overrun_ops: int = OVERRUN_OPS):
        self.max_reported = max_reported
        self.overrun_ops = overrun_ops
        self.checked_writes = 0
        self.checked_reads = 0
        self.violation_count = 0
        self.overrun_unchecked = 0
        self.violations: List[OnlineViolation] = []
        self.max_retained = 0
        self._keys: Dict[Hashable, _KeyState] = {}
        # op_id -> invoked_at of every in-flight storage operation; its
        # minimum is the window floor nothing older than which can still
        # be referenced by a future completion.
        self._pending: Dict[int, float] = {}
        # Ops evicted from the window (stuck clients): skipped, never
        # misjudged, if they eventually complete.  Bounded by the
        # number of clients that ever stalled past the overrun bound.
        self._overrun: set = set()
        self._max_op_id = -1
        self._floor = float("-inf")
        self._since_sweep = 0

    # -- trace subscription ---------------------------------------------------

    def on_begin(self, record) -> None:
        if record.kind in ("write", "read"):
            self._pending[record.op_id] = record.invoked_at
            if record.op_id > self._max_op_id:
                self._max_op_id = record.op_id
            if record.kind == "write":
                state = self._state(record.key)
                state.written[record.value] = (record.invoked_at, None)

    def on_complete(self, record) -> None:
        if record.kind not in ("write", "read"):
            return
        if record.op_id in self._overrun:
            # The window moved past this op while it was stuck; its
            # bounds are gone, so judging it now could flag legal
            # behaviour.  Skip it, visibly.
            self._overrun.discard(record.op_id)
            self.overrun_unchecked += 1
            return
        if record.kind == "write":
            self._complete_write(record)
        else:
            self._complete_read(record)
        self._pending.pop(record.op_id, None)
        # Evict stuck in-flight ops so they cannot pin the floor and
        # regrow O(ops) retained state (the crashed-reader case).
        if self._pending:
            horizon = self._max_op_id - self.overrun_ops
            stuck = [op for op in self._pending if op < horizon]
            for op in stuck:
                del self._pending[op]
                self._evict(op)
        self._floor = min(
            self._pending.values(), default=record.completed_at
        )
        self._keys[record.key].prune(self._floor)
        # Periodic global sweep: prune every key to the shared floor
        # and sample the total retained state for the high-water mark
        # (O(keys) amortized over SWEEP_EVERY completions).
        self._since_sweep += 1
        if self._since_sweep >= self.SWEEP_EVERY:
            self._sweep()

    def _evict(self, op_id: int) -> None:
        """Move one stuck op out of the window (subclass hook)."""
        self._overrun.add(op_id)

    def _sweep(self) -> None:
        self._since_sweep = 0
        retained = len(self._pending) + len(self._overrun)
        for state in self._keys.values():
            state.prune(self._floor)
            retained += state.retained()
        if retained > self.max_retained:
            self.max_retained = retained

    # -- the rules ------------------------------------------------------------

    def _state(self, key: Hashable):
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = self.key_state_factory()
        return state

    def _complete_write(self, record) -> None:
        self.checked_writes += 1
        state = self._state(record.key)
        state.written[record.value] = (
            record.invoked_at, record.completed_at
        )
        if state.write_values and not _ordered_less(
            state.write_values[-1], record.value
        ):
            self._flag(
                "writer-order",
                record.key,
                f"write {record.value!r} completed after "
                f"{state.write_values[-1]!r} but does not supersede it "
                f"(single-writer per-key values must be monotone)",
            )
            return
        state.write_times.append(record.completed_at)
        state.write_values.append(record.value)

    def _complete_read(self, record) -> None:
        self.checked_reads += 1
        state = self._state(record.key)
        value = record.result
        write_bound = state.write_bound(record.invoked_at)
        read_bound = state.read_bound(record.invoked_at)
        if value is BOTTOM:
            if write_bound is not None:
                self._flag(
                    "stale-read",
                    record.key,
                    f"read by {record.process} returned ⊥ although the "
                    f"write of {write_bound!r} completed before it started",
                )
            elif read_bound is not None:
                self._flag(
                    "read-inversion",
                    record.key,
                    f"read by {record.process} returned ⊥ although a "
                    f"preceding read returned {read_bound!r}",
                )
            return
        window = state.written.get(value)
        if window is None:
            if write_bound is not None and _ordered_less(value, write_bound):
                # Older than the retained window: superseded by a write
                # that completed before this read started.
                self._flag(
                    "stale-read",
                    record.key,
                    f"read by {record.process} returned {value!r} although "
                    f"the write of {write_bound!r} completed before it "
                    f"started",
                )
            else:
                self._flag(
                    "fabrication",
                    record.key,
                    f"read by {record.process} returned {value!r}, which "
                    f"no write wrote to this register",
                )
            return
        invoked_at, _ = window
        if invoked_at > record.completed_at:
            self._flag(
                "future-read",
                record.key,
                f"read by {record.process} returned {value!r}, whose "
                f"write was invoked only after the read completed",
            )
        if write_bound is not None and _ordered_less(value, write_bound):
            self._flag(
                "stale-read",
                record.key,
                f"read by {record.process} returned {value!r} although "
                f"the write of {write_bound!r} completed before it started",
            )
        if read_bound is not None and _ordered_less(value, read_bound):
            self._flag(
                "read-inversion",
                record.key,
                f"read by {record.process} returned {value!r} although a "
                f"preceding read returned {read_bound!r}",
            )
        if not state.read_values or _ordered_less(
            state.read_values[-1], value
        ):
            state.read_times.append(record.completed_at)
            state.read_values.append(value)

    def _flag(self, rule: str, key: Hashable, description: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_reported:
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
        )



# -- one history, both checkers ---------------------------------------------
#
# A history is a list of steps in the order the simulator would emit them:
#   ("begin", op, kind, process, time, value, key)
#   ("end", op, time, result, stamp)          # stamp: record.ts

def recording(cls):
    """``cls`` keeping every ``(rule, key)`` it flags (reports cap the
    examples they carry)."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.flagged = []

        def _flag(self, rule, key, description):
            super()._flag(rule, key, description)
            # For one writer both names say: its stamps did not increase.
            self.flagged.append(
                ("writer-order" if rule == "stamp-order" else rule, key)
            )

    return Recording


def one_at_a_time(method):
    """A ``Trace`` observer handing each record of a wave, in order, to
    a reference that takes one record a call."""

    def observe(wave):
        for record in wave:
            method(record)

    return observe


class FoldedConviction(frozenset):
    """The ``(rule, key)`` pairs the reference flagged on one step of
    ``key``, equal to the shipped checker's — or to them less one
    ``read-inversion`` when the reference convicted the read through the
    folded bound alone (``stale-read`` or ``fabrication``, then it
    returns): the shipped checker also holds it to the read bound."""

    __hash__ = frozenset.__hash__

    def __new__(cls, flagged, key):
        self = super().__new__(cls, flagged)
        self.key = key
        return self

    def __eq__(self, got):
        key = self.key
        return frozenset.__eq__(self, got) or (
            got - self == {("read-inversion", key)} and self <= got
            and self <= {("stale-read", key), ("fabrication", key)}
        )


class Fed:
    """A checker behind a streaming ``Trace`` of its own, played a
    history a step at a time: the reference a record a call, the
    shipped checker a wave of one."""

    def __init__(self, checker, reference=False):
        self.checker, self.reference, self.records = checker, reference, {}
        self.trace = Trace(retain=False)
        wrap = one_at_a_time if reference else (lambda method: method)
        self.trace.subscribe(on_begin=wrap(checker.on_begin),
                             on_complete=wrap(checker.on_complete))

    def play(self, step):
        """Play one step; the verdict, the counts and the rules flagged."""
        flagged = getattr(self.checker, "flagged", [])
        before = len(flagged)
        if step[0] == "begin":
            _, op, kind, process, time, value, key = step
            record, = self.trace.begin(kind, process, time, ((value, key),))
            self.records[op] = record
        else:
            _, op, time, result, stamp = step
            record = self.records.pop(op)
            if stamp is not None:
                record.ts = stamp
            self.trace.complete((record,), time, (result,), 1)
        c = self.checker
        return {
            "counts": (c.violation_count == 0, c.checked_writes,
                       c.checked_reads, c.overrun_unchecked),
            "flagged": FoldedConviction(flagged[before:], record.key)
            if self.reference else set(flagged[before:]),
        }


def replay(history, shipped=OnlineChecker, overrun_ops=None):
    """Drive the reference and ``shipped`` through ``history``.

    After every step: the same verdict and counts, and the same rules
    flagged by that step — up to a :class:`FoldedConviction`.
    Returns the rules the shipped checker flagged, in order.
    """
    options = {} if overrun_ops is None else {"overrun_ops": overrun_ops}
    _, fed = agree(
        Fed(recording(ReferenceValueOrderedChecker)(**options),
            reference=True),
        Fed(recording(shipped)(**options)), history, Fed.play,
    )
    return [rule for rule, _ in fed.checker.flagged]


# -- generated histories ---------------------------------------------------------

#: The window's overrun bound in histories with a stuck reader.
STUCK_OVERRUN = 8

steps = st.tuples(
    st.sampled_from(("tick", "writer", "reader", "reader")),
    st.integers(0, 15),
    st.integers(0, 15),
)
shapes = st.fixed_dictionaries({
    "n_keys": st.integers(1, 3),
    "readers": st.integers(1, 4),
    "batched": st.booleans(),
    "stuck": st.booleans(),
    "steps": st.lists(steps, min_size=25, max_size=150),
})


def build_history(n_keys, readers, batched, stuck, steps):
    """Interpret drawn steps as one client-consistent history: a step
    moves the clock or one client, which invokes its next operation
    (the writer: one batch over distinct keys) when idle and completes
    the open one — strictly later — when not."""
    history = []
    begun = 0                       # == the op id the Trace assigns next
    now = 0.0
    serial = 0                      # the writer's global value serial
    stamp_of = [0] * n_keys         # its per-key bare stamps
    done = [[] for _ in range(n_keys)]   # completed (value, stamp) per key
    batch = []                      # the open batch: (op, key, value, stamp)
    batch_began = (0, 0.0)          # (first op id, invoked_at) of the batch
    reading = {}                    # reader -> (op, key, invoked_at)
    forged = itertools.count(1)

    def finish_batch():
        nonlocal now
        if now <= batch_began[1]:
            now += 0.5
        for op, key, value, stamp in batch:
            history.append(("end", op, now, "OK", stamp))
            done[key].append((value, stamp))
        batch.clear()

    def begin(kind, process, value, key):
        nonlocal begun
        # A write left open past the overrun bound would be evicted —
        # see the module docstring.
        if batch and stuck and begun - batch_began[0] >= STUCK_OVERRUN - 1:
            finish_batch()
        history.append(("begin", begun, kind, process, now, value, key))
        begun += 1
        return begun - 1

    if stuck:
        begin("read", "stuck", None, 0)
    for actor, a, b in steps:
        if actor == "tick":
            now += 0.5 * (1 + a % 3)
        elif actor == "writer" and batch:
            finish_batch()
        elif actor == "writer":
            batch_began = (begun, now)
            size = 1 + a % 3 if batched else 1
            for offset in range(min(size, n_keys)):
                key = (b + offset) % n_keys
                serial += 1
                stamp_of[key] += 1
                op = begin("write", "writer", serial, key)
                batch.append((op, key, serial, stamp_of[key]))
        elif a % readers not in reading:
            key = b % n_keys
            op = begin("read", f"r{a % readers}", None, key)
            reading[a % readers] = (op, key, now)
        else:
            op, key, invoked_at = reading.pop(a % readers)
            if now <= invoked_at:
                now += 0.5
            open_here = [(v, s) for _, k, v, s in batch if k == key]
            if b in (9, 10) and open_here:
                value, stamp = open_here[0]
            elif b in (13, 14):
                # Nothing wrote it: above every write, or below.
                value = stamp = (10 ** 6 + next(forged)) * (
                    1 if b == 13 else -1
                )
            elif b == 15 or not done[key]:
                value, stamp = BOTTOM, None
            elif b == 11:
                value, stamp = done[key][-1 - (a // 4) % len(done[key])]
            elif b == 12:
                value, stamp = done[key][0]
            else:
                value, stamp = done[key][-1]
            history.append(("end", op, now, value, stamp))
    if batch:
        finish_batch()
    if stuck:
        value, stamp = done[0][0] if done[0] else (BOTTOM, None)
        history.append(("end", 0, now + 1.0, value, stamp))
    return history


# -- scripted histories (each also the history that kills a mutant) ------------

def write(op, value, start, end, key=0):
    """A complete write by the one writer; its stamp is its value."""
    return [("begin", op, "write", "writer", start, value, key),
            ("end", op, end, "OK", value)]


def read(op, result, start, end, key=0, process="reader"):
    stamp = None if result is BOTTOM else result
    return [("begin", op, "read", process, start, None, key),
            ("end", op, end, result, stamp)]


def churn(count, start, first=1):
    """``count`` sequential write-then-read pairs from time ``start``."""
    steps = []
    for n in range(first, first + count):
        at = start + 2.0 * n
        steps += write(f"w{n}", n, at, at + 0.5)
        steps += read(f"r{n}", n, at + 1.0, at + 1.5)
    return steps


#: name -> (history, the rules the shipped checker flags, overrun_ops)
SCRIPTS = {
    # The write is registered at 2.0; a read that ended at 1.0 already
    # returned its value.  The parent's stamp-ordered checker parked it.
    "future-read-of-an-in-flight-write": ([
        ("begin", "w", "write", "writer", 2.0, 1, 0),
        *read("r", 1, 0.0, 1.0),
        ("end", "w", 3.0, "OK", 1),
    ], ["future-read"], None),
    # Two writes of one writer share an interval (as batch elements do)
    # and complete in the wrong order: nothing completed before either
    # was invoked, so stamp-order alone sees nothing.
    "overlapping-writes-complete-out-of-order": ([
        ("begin", "w1", "write", "writer", 0.0, 1, 0),
        ("begin", "w2", "write", "writer", 0.0, 2, 0),
        ("end", "w2", 2.0, "OK", 2),
        ("end", "w1", 2.0, "OK", 1),
    ], ["writer-order"], None),
    # The writer goes backwards while a slow read pins the window.
    "writer-goes-backwards-inside-the-window": ([
        ("begin", "slow", "read", "r0", 0.0, None, 0),
        *write("w5", 5, 1.0, 2.0), *write("w3", 3, 3.0, 4.0),
        ("end", "slow", 5.0, 5, 5),
    ], ["writer-order"], None),
    # Write 2 completes at the instant the read is invoked: concurrent,
    # so the read may still return write 1.
    "read-invoked-as-a-write-completes": ([
        *write("w1", 1, 0.0, 1.0), *write("w2", 2, 2.0, 3.0),
        *read("r", 1, 3.0, 4.0),
    ], [], None),
    # Write 2 is in flight while both reads run: no stale rule applies,
    # but the second read falls behind the first.
    "second-read-falls-behind-the-first": ([
        *write("w1", 1, 0.0, 1.0),
        ("begin", "w2", "write", "writer", 2.0, 2, 0),
        *read("r1", 2, 3.0, 4.0, process="r1"),
        *read("r2", 1, 5.0, 6.0, process="r2"),
        ("end", "w2", 7.0, "OK", 2),
    ], ["read-inversion"], None),
    # A read concurrent with every write may still return ⊥.
    "slow-read-spans-two-writes": ([
        ("begin", "slow", "read", "r0", 0.5, None, 0),
        *write("w1", 1, 1.0, 2.0), *write("w2", 2, 3.0, 4.0),
        ("end", "slow", 5.0, BOTTOM, None),
    ], [], None),
    # A crashed reader's op outlives the window and completes with an
    # ancient view: skipped, visibly, by both.
    "stuck-reader-completes-late": ([
        ("begin", "stuck", "read", "crashed", 0.0, None, 0),
        *churn(12, start=0.0),
        ("end", "stuck", 40.0, 1, 1),
    ], [], 4),
    "bottom-after-a-completed-write": ([
        *write("w1", 1, 0.0, 1.0), *read("r", BOTTOM, 2.0, 3.0),
    ], ["stale-read"], None),
    # Write 1 has left the window when the read returns it, and a read
    # of write 2 completed in between: the reference stops at the folded
    # bound, the shipped checker also holds the read to the read bound.
    "folded-write-read-behind-a-newer-read": ([
        *write("w1", 1, 0.0, 1.0), *write("w2", 2, 2.0, 3.0),
        *read("r1", 2, 4.0, 5.0, process="r1"),
        *read("r2", 1, 6.0, 7.0, process="r2"),
    ], ["stale-read", "read-inversion"], None),
    # A pair nothing wrote is judged once and moves no bound: the honest
    # read after it is clean.
    "forged-pair-does-not-move-the-read-bound": ([
        *write("w1", 1, 0.0, 1.0),
        *read("r1", 99, 2.0, 3.0, process="r1"),
        *read("r2", 1, 4.0, 5.0, process="r2"),
    ], ["fabrication"], None),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scripted_histories_agree(name):
    history, rules, overrun_ops = SCRIPTS[name]
    assert replay(history, overrun_ops=overrun_ops) == rules


def test_past_a_fold_only_the_stamp_order_remembers_the_writer():
    """The one conviction the reference does not make: its per-writer
    order is the pruned cummax series itself, so once the window has
    folded the writer's last write away a step backwards compares
    against nothing.  The shipped checker keeps one stamp per writer."""
    history = [
        *write("w5", 5, 0.0, 1.0), *read("r", 5, 2.0, 3.0),
        *write("w3", 3, 4.0, 5.0),
    ]
    flagged = []
    for fed in (Fed(ReferenceValueOrderedChecker(), reference=True),
                Fed(OnlineChecker())):
        for step in history:
            fed.play(step)
        flagged.append([v.rule for v in fed.checker.report().violations])
    assert flagged == [[], ["writer-order"]]


# -- seeded mutants of the shipped checker -------------------------------------

class ParkedReadSkipsFutureCheck(OnlineChecker):
    """The parent's stamp-ordered checker: a read of an in-flight write
    is parked without looking at when that write began."""

    def _complete_read(self, record):
        inflight = self._state(record.key).inflight
        began = inflight.get(record.result)
        if began is not None:
            inflight[record.result] = float("-inf")
        super()._complete_read(record)
        if began is not None:
            inflight[record.result] = began


class NoPerWriterOrder(OnlineChecker):
    """The parent's stamp-ordered checker: only ``stamp-order``."""

    def _complete_write(self, record):
        self._state(record.key).writer_stamp.clear()
        super()._complete_write(record)


class ReadBoundNeverAdvances(OnlineChecker):
    def _complete_read(self, record):
        super()._complete_read(record)
        state = self._state(record.key)
        del state.read_times[:], state.read_stamps[:]


class EvictedOpIsJudged(OnlineChecker):
    def on_complete(self, records):
        for record in records:
            self._overrun.discard(record.op_id)
        super().on_complete(records)


class BottomAfterWriteAccepted(OnlineChecker):
    def _complete_read(self, record):
        if record.result is BOTTOM:
            self.checked_reads += 1
        else:
            super()._complete_read(record)


class _OverKeyState(OnlineChecker):
    """The shipped checker over a mutated per-key state."""

    key_state = ShippedKeyState

    def _state(self, key):
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = self.key_state()
        return state


class WriteBoundIncludesConcurrentWrites(_OverKeyState):
    class key_state(ShippedKeyState):
        def write_bound(self, before):
            index = bisect_right(self.write_times, before)
            if index:
                return self.write_stamps[index - 1]
            return self.base_write_bound


class PruneIgnoresTheFloor(_OverKeyState):
    class key_state(ShippedKeyState):
        def prune(self, floor):
            super().prune(float("inf"))


#: mutant -> the scripted history that kills it.
MUTANTS = {
    ParkedReadSkipsFutureCheck: "future-read-of-an-in-flight-write",
    NoPerWriterOrder: "overlapping-writes-complete-out-of-order",
    WriteBoundIncludesConcurrentWrites: "read-invoked-as-a-write-completes",
    ReadBoundNeverAdvances: "second-read-falls-behind-the-first",
    PruneIgnoresTheFloor: "slow-read-spans-two-writes",
    EvictedOpIsJudged: "stuck-reader-completes-late",
    BottomAfterWriteAccepted: "bottom-after-a-completed-write",
}


def test_the_mutant_harness_is_the_shipped_checker():
    for name, (history, rules, overrun_ops) in SCRIPTS.items():
        assert replay(history, _OverKeyState, overrun_ops) == rules, name


@each_mutant(MUTANTS)
def test_seeded_mutants_are_killed(mutant):
    history, _, overrun_ops = SCRIPTS[MUTANTS[mutant]]
    assert_killed(lambda shipped: replay(history, shipped, overrun_ops),
                  OnlineChecker, mutant)
