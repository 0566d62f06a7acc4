"""Reference oracles for the one register checker.

Every storage run is judged by the stamp-ordered
:class:`~repro.analysis.streaming.OnlineChecker`: live on streamed runs,
and on FULL runs by :func:`~repro.analysis.streaming.check_history`,
which replays the retained records through a checker that evicts
nothing (``RunResult.atomicity``).  The three checkers FULL runs used
before live on *only here*, verbatim, as references:

1. the generic Wing–Gong search (``analysis/linearizability.py``):
   exponential, decides linearizability of a register history by value;
2. the SWMR value rules (``analysis/atomicity.py``): fabrication,
   future-read, stale-read and read-inversion over the single writer's
   version order, quadratic per key, handing concurrently-written keys
   to Wing–Gong for one ``mwmr-not-linearizable`` bit;
3. Lamport regularity (``analysis/regularity.py``): the SWMR rules
   without read inversion.

What changed in the copies: the report classes are renamed
``ReferenceViolation`` / ``ReferenceAtomicityReport`` /
``ReferenceRegularityReport``, the two private ``_check_register``
functions ``_check_atomic_register`` / ``_check_regular_register``,
and the cross-module imports became same-module references.

The references convict by *value*, the shipped checker by the
protocol's *stamps*.  For a single writer the two orders coincide (one
process draws values and stamps in the same sequence), so on
hand-built single-writer histories stamped the way that writer would
stamp them (:func:`stamped`) the verdicts must agree — the hypothesis
test below holds all three references to that, for both claims.  On
protocol runs the agreement is held by
``tests/analysis/test_checker_differential.py`` (every storage row and
knob, SW against the SWMR rules, MW against Wing–Gong) and, here, by
the FULL storage cells of the fig1 / fig4 / theorem3 / contention
exhibit grids, whose verdicts *and* violation rule names must match.
The references' own unit tests come along unchanged.
"""

import importlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import check_history
from repro.errors import CheckerError
from repro.scenarios import run_grid
from repro.sim.trace import OperationRecord, Trace
from repro.storage.history import BOTTOM, DEFAULT_KEY
from tests.differential import DIFFERENTIAL, agree


# -- reference 1: Wing–Gong (analysis/linearizability.py) ------------------

class _Op:
    __slots__ = ("index", "kind", "value", "result", "start", "end", "pending")

    def __init__(self, index, kind, value, result, start, end, pending):
        self.index = index
        self.kind = kind
        self.value = value
        self.result = result
        self.start = start
        self.end = end
        self.pending = pending


def is_linearizable(records: Iterable[OperationRecord]) -> bool:
    """Decide linearizability of a (keyed) register history.

    The history is partitioned by register key and each register is
    decided independently — registers are independent objects, so by
    locality the whole history is linearizable iff every per-key
    sub-history is.  Partitioning also shrinks the exponential search:
    ``k`` registers of ``n`` operations cost ``k · O(f(n))`` instead of
    ``O(f(k·n))``.

    Pending reads are ignored (they impose no constraint); pending writes
    may or may not take effect and are explored both ways.
    """
    groups = {}
    for record in records:
        if record.kind in ("write", "read"):
            key = getattr(record, "key", 0)
            groups.setdefault(key, []).append(record)
    return all(
        _register_linearizable(group) for group in groups.values()
    )


def _register_linearizable(records: Iterable[OperationRecord]) -> bool:
    """Wing–Gong search over one register's operations."""
    ops: List[_Op] = []
    for record in records:
        pending = not record.complete
        if record.kind == "read" and pending:
            continue  # a pending read constrains nothing
        end = record.completed_at if record.complete else float("inf")
        ops.append(
            _Op(
                len(ops),
                record.kind,
                record.value,
                record.result,
                record.invoked_at,
                end,
                pending,
            )
        )

    n = len(ops)
    if n == 0:
        return True
    full_mask = (1 << n) - 1

    # precedence: op i must linearize before op j if i.end < j.start
    @lru_cache(maxsize=None)
    def explore(done_mask: int, state_key: Any) -> bool:
        if done_mask == full_mask:
            return True
        for op in ops:
            bit = 1 << op.index
            if done_mask & bit:
                continue
            # op is eligible iff every operation that *precedes* it is done
            eligible = True
            for other in ops:
                other_bit = 1 << other.index
                if done_mask & other_bit or other.index == op.index:
                    continue
                if other.end < op.start:
                    eligible = False
                    break
            if not eligible:
                continue
            if op.kind == "write":
                if explore(done_mask | bit, op.value):
                    return True
                if op.pending:
                    # a pending write may also never take effect: skip it
                    if explore(done_mask | bit, state_key):
                        return True
            elif op.kind == "read":
                current = BOTTOM if state_key is _INIT else state_key
                if op.result == current or (
                    op.result is BOTTOM and current is BOTTOM
                ):
                    if explore(done_mask | bit, state_key):
                        return True
        return False

    result = explore(0, _INIT)
    explore.cache_clear()
    return result


class _InitSentinel:
    def __repr__(self) -> str:
        return "<init>"


_INIT = _InitSentinel()


# -- reference 2: the SWMR value rules (analysis/atomicity.py) -------------

@dataclass(frozen=True)
class ReferenceViolation:
    """One atomicity violation, with the offending operations."""

    rule: str
    description: str
    operations: Tuple[OperationRecord, ...]

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"[{self.rule}] {self.description}"


@dataclass
class ReferenceAtomicityReport:
    """Checker outcome: violations plus the version assignment used.

    For multi-register histories the top-level report is the aggregate
    (violations concatenated in key order, versions merged) and
    ``by_key`` holds one independent report per register; single-key
    reports leave ``by_key`` empty.
    """

    violations: Tuple[ReferenceViolation, ...]
    versions: Dict[int, int]  # read op_id -> version index
    by_key: Dict[Hashable, "ReferenceAtomicityReport"] = field(default_factory=dict)

    @property
    def atomic(self) -> bool:
        return not self.violations

    def report_for(self, key: Hashable) -> "ReferenceAtomicityReport":
        """The per-register report for one key (self when unpartitioned)."""
        return self.by_key.get(key, self)

    def verdicts(self) -> Dict[Hashable, bool]:
        """Per-key ``atomic`` verdicts (one entry for single-key runs)."""
        if self.by_key:
            return {key: rep.atomic for key, rep in self.by_key.items()}
        return {DEFAULT_KEY: self.atomic}


def partition_by_key(
    records: Iterable[OperationRecord],
) -> Dict[Hashable, List[OperationRecord]]:
    """Storage operations grouped per register key, key-sorted.

    Only ``write``/``read`` records carry register semantics; other
    kinds (propose/learn) are dropped.  Keys are ordered by ``repr`` so
    aggregate reports are deterministic.
    """
    groups: Dict[Hashable, List[OperationRecord]] = {}
    for record in records:
        if record.kind in ("write", "read"):
            key = getattr(record, "key", DEFAULT_KEY)
            groups.setdefault(key, []).append(record)
    return {key: groups[key] for key in sorted(groups, key=repr)}


def check_by_key(records, check_register, make_report):
    """Partition ``records`` by key, check each register with
    ``check_register``, and aggregate (violations concatenated in key
    order, versions merged) via ``make_report(violations, versions,
    by_key)``.  Single-key histories return their lone per-register
    report directly — the exact historical code path and report shape.
    Shared by the atomicity and regularity checkers.
    """
    groups = partition_by_key(records)
    if len(groups) <= 1:
        only = next(iter(groups.values()), [])
        return check_register(only)
    by_key = {key: check_register(group) for key, group in groups.items()}
    violations: List[ReferenceViolation] = []
    versions: Dict[int, int] = {}
    for report in by_key.values():
        violations.extend(report.violations)
        versions.update(report.versions)
    return make_report(tuple(violations), versions, by_key)


def check_swmr_atomicity(
    records: Iterable[OperationRecord],
) -> ReferenceAtomicityReport:
    """Check a (keyed) register history for atomicity.

    Partitions by key and checks each register independently; see the
    module docstring.
    """
    return check_by_key(
        records,
        _check_atomic_register,
        lambda violations, versions, by_key: ReferenceAtomicityReport(
            violations, versions, by_key=by_key
        ),
    )


def _check_atomic_register(records: Sequence[OperationRecord]) -> ReferenceAtomicityReport:
    """Atomicity of one register's history (the pre-keyed checker body)."""
    records = list(records)
    writes = sorted(
        (r for r in records if r.kind == "write"),
        key=lambda r: r.invoked_at,
    )
    reads = [r for r in records if r.kind == "read"]
    violations: List[ReferenceViolation] = []

    if _has_concurrent_writers(writes):
        # Multi-writer register: outside the SWMR characterization —
        # decided by the generic Wing–Gong checker on this key alone.
        if is_linearizable(records):
            return ReferenceAtomicityReport((), {})
        return ReferenceAtomicityReport(
            (
                ReferenceViolation(
                    "mwmr-not-linearizable",
                    "concurrently-written register history admits no "
                    "linearization",
                    tuple(writes),
                ),
            ),
            {},
        )

    _require_sequential_writer(writes)
    version_of_value = _version_map(writes)

    read_versions: Dict[int, int] = {}
    for read in reads:
        if not read.complete:
            continue
        value = read.result
        if value is BOTTOM:
            read_versions[read.op_id] = 0
            continue
        if value not in version_of_value:
            violations.append(
                ReferenceViolation(
                    "fabrication",
                    f"read by {read.process} returned {value!r}, "
                    "which no write wrote",
                    (read,),
                )
            )
            continue
        read_versions[read.op_id] = version_of_value[value]

    # Rule 2: no reading the future.
    for read in reads:
        if not read.complete or read.op_id not in read_versions:
            continue
        version = read_versions[read.op_id]
        if version == 0:
            continue
        write = writes[version - 1]
        # Strict comparison: operations touching at a single instant are
        # concurrent (precedence is response < invocation), so a read
        # completing exactly when the write is invoked may still return
        # it — the Wing-Gong checker cross-validates this boundary.
        if write.invoked_at > read.completed_at:
            violations.append(
                ReferenceViolation(
                    "future-read",
                    f"read by {read.process} returned the value of a "
                    "write invoked only after the read completed",
                    (read, write),
                )
            )

    # Rule 3: no stale reads w.r.t. preceding writes.
    for read in reads:
        if not read.complete or read.op_id not in read_versions:
            continue
        version = read_versions[read.op_id]
        for index, write in enumerate(writes, start=1):
            if index > version and write.precedes(read):
                violations.append(
                    ReferenceViolation(
                        "stale-read",
                        f"read by {read.process} returned version "
                        f"{version} although write #{index} "
                        f"({write.value!r}) completed before it started",
                        (read, write),
                    )
                )

    # Rule 4: no read inversion.
    complete_reads = [
        r for r in reads if r.complete and r.op_id in read_versions
    ]
    for first in complete_reads:
        for second in complete_reads:
            if first.precedes(second):
                if read_versions[second.op_id] < read_versions[first.op_id]:
                    violations.append(
                        ReferenceViolation(
                            "read-inversion",
                            f"read by {second.process} returned an older "
                            f"version than the preceding read by "
                            f"{first.process}",
                            (first, second),
                        )
                    )

    return ReferenceAtomicityReport(tuple(violations), read_versions)


def _has_concurrent_writers(writes: Sequence[OperationRecord]) -> bool:
    """True when writes of *distinct* writers overlap in real time
    (a genuine multi-writer register).  Overlapping writes by a single
    client are still a well-formedness error, raised by
    :func:`_require_sequential_writer`."""
    for earlier, later in zip(writes, writes[1:]):
        earlier_end = (
            earlier.completed_at if earlier.complete else float("inf")
        )
        if later.invoked_at < earlier_end and later.process != earlier.process:
            return True
    return False


def _require_sequential_writer(writes: Sequence[OperationRecord]) -> None:
    for earlier, later in zip(writes, writes[1:]):
        earlier_end = (
            earlier.completed_at if earlier.complete else float("inf")
        )
        if later.invoked_at < earlier_end:
            # Elements of one *batched* round-trip share the wire
            # interval but are logically sequential; their strictly
            # increasing stamps certify the program order the version
            # map below relies on.
            earlier_ts = earlier.meta.get("ts")
            later_ts = later.meta.get("ts")
            if (
                earlier.process == later.process
                and earlier_ts is not None
                and later_ts is not None
                and earlier_ts < later_ts
            ):
                continue
            raise CheckerError(
                "writer invoked overlapping writes; SWMR histories "
                "require a sequential writer"
            )


def _version_map(writes: Sequence[OperationRecord]) -> Dict[Any, int]:
    mapping: Dict[Any, int] = {}
    for index, write in enumerate(writes, start=1):
        if write.value in mapping:
            raise CheckerError(
                f"duplicate written value {write.value!r}; the checker "
                "requires distinct write values"
            )
        if write.value is BOTTOM:
            raise CheckerError("⊥ is outside the write domain")
        mapping[write.value] = index
    return mapping


# -- reference 3: regularity (analysis/regularity.py) -----------------------

@dataclass
class ReferenceRegularityReport:
    violations: Tuple[ReferenceViolation, ...]
    versions: Dict[int, int]
    by_key: Dict[Hashable, "ReferenceRegularityReport"] = field(default_factory=dict)

    @property
    def regular(self) -> bool:
        return not self.violations


def check_swmr_regularity(
    records: Iterable[OperationRecord],
) -> ReferenceRegularityReport:
    """Check a (keyed) SWMR history for regularity.

    Like the atomicity checker, the history is partitioned by register
    key and every register is checked independently (registers are
    independent objects); multi-register reports aggregate violations
    and expose the per-key reports on ``by_key``.
    """
    return check_by_key(
        records,
        _check_regular_register,
        lambda violations, versions, by_key: ReferenceRegularityReport(
            violations, versions, by_key=by_key
        ),
    )


def _check_regular_register(records: Sequence[OperationRecord]) -> ReferenceRegularityReport:
    """Regularity of one register's history (per-writer-sequential)."""
    records = list(records)
    writes = sorted(
        (r for r in records if r.kind == "write"),
        key=lambda r: r.invoked_at,
    )
    _require_sequential_writer(writes)
    version_of_value = _version_map(writes)
    violations: List[ReferenceViolation] = []
    versions: Dict[int, int] = {}

    for read in records:
        if read.kind != "read" or not read.complete:
            continue
        value = read.result
        if value is BOTTOM:
            version = 0
        elif value in version_of_value:
            version = version_of_value[value]
        else:
            violations.append(
                ReferenceViolation(
                    "fabrication",
                    f"read by {read.process} returned {value!r}, "
                    "which no write wrote",
                    (read,),
                )
            )
            continue
        versions[read.op_id] = version

        # Lower bound: the last write preceding the read.
        floor = 0
        for index, write in enumerate(writes, start=1):
            if write.precedes(read):
                floor = index
        if version < floor:
            violations.append(
                ReferenceViolation(
                    "stale-read",
                    f"read by {read.process} returned version {version} "
                    f"but write #{floor} already completed before it",
                    (read,),
                )
            )
        # Upper bound: a write invoked before the read completes.
        if version > 0:
            write = writes[version - 1]
            if write.invoked_at > read.completed_at:
                violations.append(
                    ReferenceViolation(
                        "future-read",
                        f"read by {read.process} returned a value whose "
                        "write started only after the read completed",
                        (read, write),
                    )
                )

    return ReferenceRegularityReport(tuple(violations), versions)


# -- hand-built histories ------------------------------------------------------

#: The stamp :func:`stamped` gives a read of a value no write wrote.
UNWRITTEN = 10**6


def make_history(*ops):
    """ops: (kind, process, t_inv, t_resp_or_None, value, result)."""
    trace = Trace()
    for kind, process, invoked, completed, value, result in ops:
        record, = trace.begin(kind, process, invoked, ((value, 0),))
        if completed is not None:
            trace.complete((record,), completed, (result,), 0)
    return trace.records


def stamped(records):
    """Stamp a hand-built single-writer history the way its writer
    would: the k-th write of a key (by invocation) carries stamp k, a
    read the stamp of the write whose value it returned."""
    stamps, count = {}, {}
    writes = [r for r in records if r.kind == "write"]
    for write in sorted(writes, key=lambda r: r.invoked_at):
        count[write.key] = count.get(write.key, 0) + 1
        stamps[write.key, write.value] = count[write.key]
    for record in records:
        if not record.complete:
            continue
        if record.kind == "write":
            record.meta["ts"] = stamps[record.key, record.value]
        elif record.result is not BOTTOM:
            record.meta["ts"] = stamps.get(
                (record.key, record.result), UNWRITTEN
            )
    return records


# -- the SWMR rules (moved unchanged from tests/analysis/test_atomicity.py) ----

class TestCleanHistories:
    def test_empty_history_is_atomic(self):
        assert check_swmr_atomicity([]).atomic

    def test_sequential_history(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("read", "r", 2, 3, None, "a"),
            ("write", "w", 4, 5, "b", "OK"),
            ("read", "r", 6, 7, None, "b"),
        )
        report = check_swmr_atomicity(records)
        assert report.atomic and report.violations == ()
        assert report.versions == {1: 1, 3: 2}

    def test_initial_bottom_read(self):
        records = make_history(("read", "r", 0, 1, None, BOTTOM))
        assert check_swmr_atomicity(records).atomic

    def test_concurrent_read_may_return_either(self):
        for result in ("a", BOTTOM):
            records = make_history(
                ("write", "w", 0, 10, "a", "OK"),
                ("read", "r", 1, 2, None, result),
            )
            assert check_swmr_atomicity(records).atomic, result

    def test_incomplete_read_ignored(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("read", "r", 2, None, None, None),
        )
        assert check_swmr_atomicity(records).atomic


class TestViolations:
    def test_fabrication(self):
        records = make_history(("read", "r", 0, 1, None, "ghost"))
        report = check_swmr_atomicity(records)
        assert [v.rule for v in report.violations] == ["fabrication"]

    def test_future_read(self):
        records = make_history(
            ("read", "r", 0, 1, None, "a"),
            ("write", "w", 2, 3, "a", "OK"),
        )
        report = check_swmr_atomicity(records)
        assert "future-read" in {v.rule for v in report.violations}

    def test_stale_read(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("write", "w", 2, 3, "b", "OK"),
            ("read", "r", 4, 5, None, "a"),
        )
        report = check_swmr_atomicity(records)
        assert "stale-read" in {v.rule for v in report.violations}

    def test_stale_read_vs_bottom(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("read", "r", 2, 3, None, BOTTOM),
        )
        report = check_swmr_atomicity(records)
        assert "stale-read" in {v.rule for v in report.violations}

    def test_read_inversion(self):
        records = make_history(
            ("write", "w", 0, 100, "a", "OK"),     # concurrent with both
            ("read", "r1", 1, 2, None, "a"),
            ("read", "r2", 3, 4, None, BOTTOM),
        )
        report = check_swmr_atomicity(records)
        assert "read-inversion" in {v.rule for v in report.violations}

    def test_concurrent_reads_may_disagree(self):
        records = make_history(
            ("write", "w", 0, 100, "a", "OK"),
            ("read", "r1", 1, 5, None, "a"),
            ("read", "r2", 2, 4, None, BOTTOM),   # overlaps r1
        )
        assert check_swmr_atomicity(records).atomic


class TestMalformedHistories:
    def test_overlapping_writes_rejected(self):
        records = make_history(
            ("write", "w", 0, 5, "a", "OK"),
            ("write", "w", 1, 6, "b", "OK"),
        )
        with pytest.raises(CheckerError):
            check_swmr_atomicity(records)

    def test_duplicate_values_rejected(self):
        records = make_history(
            ("write", "w", 0, 1, "a", "OK"),
            ("write", "w", 2, 3, "a", "OK"),
        )
        with pytest.raises(CheckerError):
            check_swmr_atomicity(records)

    def test_bottom_write_rejected(self):
        records = make_history(("write", "w", 0, 1, BOTTOM, "OK"))
        with pytest.raises(CheckerError):
            check_swmr_atomicity(records)


# -- Wing–Gong (moved unchanged from tests/analysis/test_linearizability.py) --

def test_empty_is_linearizable():
    assert is_linearizable([])


def test_sequential_history_linearizable():
    records = make_history(
        ("write", "w", 0, 1, "a", "OK"),
        ("read", "r", 2, 3, None, "a"),
    )
    assert is_linearizable(records)


def test_stale_read_not_linearizable():
    records = make_history(
        ("write", "w", 0, 1, "a", "OK"),
        ("read", "r", 2, 3, None, BOTTOM),
    )
    assert not is_linearizable(records)


def test_pending_write_may_take_effect():
    records = make_history(
        ("write", "w", 0, None, "a", None),
        ("read", "r", 5, 6, None, "a"),
    )
    assert is_linearizable(records)


def test_pending_write_may_not_take_effect():
    records = make_history(
        ("write", "w", 0, None, "a", None),
        ("read", "r", 5, 6, None, BOTTOM),
    )
    assert is_linearizable(records)


def test_inversion_not_linearizable():
    records = make_history(
        ("write", "w", 0, 100, "a", "OK"),
        ("read", "r1", 1, 2, None, "a"),
        ("read", "r2", 3, 4, None, BOTTOM),
    )
    assert not is_linearizable(records)


# -- regularity (moved unchanged from tests/storage/test_regular.py) ----------

class TestRegularityChecker:
    def test_rejects_fabrication(self):
        trace = Trace()
        record, = trace.begin("read", "r", 0.0, ((None, 0),))
        trace.complete((record,), 1.0, ("ghost",), 0)
        report = check_swmr_regularity(trace.records)
        assert not report.regular

    def test_rejects_stale_read(self):
        trace = Trace()
        w, = trace.begin("write", "w", 0.0, (("a", 0),))
        trace.complete((w,), 1.0, ("OK",), 0)
        r, = trace.begin("read", "r", 2.0, ((None, 0),))
        trace.complete((r,), 3.0, (BOTTOM,), 0)
        assert not check_swmr_regularity(trace.records).regular

    def test_accepts_read_inversion(self):
        trace = Trace()
        w, = trace.begin("write", "w", 0.0, (("a", 0),))
        trace.complete((w,), 100.0, ("OK",), 0)    # concurrent with both
        r1, = trace.begin("read", "r1", 1.0, ((None, 0),))
        trace.complete((r1,), 2.0, ("a",), 0)
        r2, = trace.begin("read", "r2", 3.0, ((None, 0),))
        trace.complete((r2,), 4.0, (BOTTOM,), 0)
        assert check_swmr_regularity(trace.records).regular
        assert not check_swmr_atomicity(trace.records).atomic


# -- the shipped checker against the references ---------------------------------

def judge(checker, history):
    return checker(history)


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["read"] * 2 + ["write"]),
        st.integers(0, 20),          # invocation time
        st.integers(1, 6),           # duration
        st.integers(0, 3),           # value/result selector
    ),
    min_size=1,
    max_size=6,
)


@given(ops=op_strategy)
@settings(DIFFERENTIAL, max_examples=150)
def test_replay_agrees_with_the_references(ops):
    """On complete SWMR histories with distinct write values the SWMR
    rules and Wing–Gong agree, and so does the replayed stamp-order
    checker once the history carries its writer's stamps — for the
    atomic claim, and for the regular claim against the regularity
    rules."""
    trace = Trace()
    write_clock = 0
    write_count = 0
    values = []
    for kind, start, duration, selector in ops:
        if kind == "write":
            # keep the writer sequential with distinct values
            invoked = max(start, write_clock)
            completed = invoked + duration
            write_clock = completed + 1
            write_count += 1
            value = f"v{write_count}"
            values.append(value)
            record, = trace.begin("write", "w", invoked, ((value, 0),))
            trace.complete((record,), completed, ("OK",), 0)
        else:
            result = (
                BOTTOM
                if selector == 0 or not values
                else values[min(selector, len(values)) - 1]
            )
            record, = trace.begin("read", f"r{start}", start, ((None, 0),))
            trace.complete((record,), start + duration, (result,), 0)
    records = stamped(trace.records)
    assert check_swmr_atomicity(records).atomic == is_linearizable(records)
    agree(
        lambda records: {
            "atomic": check_swmr_atomicity(records).atomic,
            "regular": check_swmr_regularity(records).regular,
        },
        lambda records: {
            "atomic": check_history(records).atomic,
            "regular": check_history(records, claim="regular").regular,
        },
        [records], judge,
    )


def test_regular_claim_drops_only_read_inversion():
    """The inversion the regularity rules accept and the SWMR rules
    convict: the atomic claim convicts it of exactly that rule, the
    regular claim passes it and reports no atomicity."""
    records = stamped(make_history(
        ("write", "w", 0, 100, "a", "OK"),
        ("read", "r1", 1, 2, None, "a"),
        ("read", "r2", 3, 4, None, BOTTOM),
    ))
    atomic = check_history(records)
    assert [v.rule for v in atomic.violations] == ["read-inversion"]
    assert atomic.key_violations == {DEFAULT_KEY: 1}
    regular = check_history(records, claim="regular")
    assert regular.regular and not regular.atomic
    assert regular.verdict == "regular"


@pytest.mark.parametrize("name", ("fig1", "fig4", "theorem3", "contention"))
def test_exhibit_cells_match_the_reference(name):
    """Every FULL storage cell of the exhibit grid: the sweep's verdict
    is the replayed checker's, whose verdict and violation rule names
    are the SWMR rules' (Wing–Gong on concurrently-written keys) on the
    same records — E1's and E7's read inversions included."""
    grid = importlib.import_module(f"repro.experiments.{name}").GRID
    cells = run_grid(grid).cells
    for cell in cells:
        assert cell.verdict == cell.unwrap().atomicity.verdict, cell.point

    def verdict(report):
        return {"atomic": report.atomic,
                "rules": {v.rule for v in report.violations}}

    agree(
        lambda cell: verdict(check_swmr_atomicity(cell.unwrap().records)),
        lambda cell: verdict(cell.unwrap().atomicity),
        cells, judge,
    )
