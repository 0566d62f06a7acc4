"""Register atomicity checking over the keyed register space.

Histories are **partitioned by register key** and every register is
checked independently — registers are independent objects, so by
locality of linearizability the history is atomic iff each per-key
sub-history is.  This turns the global check into a *sum* of per-key
checks: the quadratic rules below run over per-key operation counts,
which is strictly faster on mixed multi-register workloads and is what
makes million-op soak histories checkable.

For a single-writer register whose writes carry *distinct* values, a
per-key history is atomic (linearizable against the register spec) iff

1. every complete read returns ⊥ or a value some write wrote
   (**no fabrication** — the Theorem 3 proof's ex5 violates this);
2. a read never returns a value whose write was invoked only after the
   read completed (**no reading the future**);
3. if write ``w'`` strictly follows the write of the returned value and
   ``w'`` *precedes* the read, the read is stale (**no stale reads** —
   Figure 1's ex4 violates this);
4. if read ``r1`` precedes read ``r2``, then ``r2`` returns a version at
   least as new as ``r1``'s (**no read inversion**).

This characterization is standard for SWMR registers; the generic
Wing–Gong checker in :mod:`repro.analysis.linearizability` cross-checks
it on small histories.  Registers written *concurrently by distinct
writers* (multi-writer workloads) fall outside the SWMR
characterization; those keys are handed to the Wing–Gong checker
directly and report a single ``mwmr-not-linearizable`` violation when
it fails.

The checker reports *all* violations rather than raising, so experiments
that intentionally reproduce violations (E1, E7) can present them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import CheckerError
from repro.analysis.linearizability import is_linearizable
from repro.sim.trace import OperationRecord
from repro.storage.history import BOTTOM, DEFAULT_KEY


@dataclass(frozen=True)
class Violation:
    """One atomicity violation, with the offending operations."""

    rule: str
    description: str
    operations: Tuple[OperationRecord, ...]

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"[{self.rule}] {self.description}"


@dataclass
class AtomicityReport:
    """Checker outcome: violations plus the version assignment used.

    For multi-register histories the top-level report is the aggregate
    (violations concatenated in key order, versions merged) and
    ``by_key`` holds one independent report per register; single-key
    reports leave ``by_key`` empty.
    """

    violations: Tuple[Violation, ...]
    versions: Dict[int, int]  # read op_id -> version index
    by_key: Dict[Hashable, "AtomicityReport"] = field(default_factory=dict)

    @property
    def atomic(self) -> bool:
        return not self.violations

    def report_for(self, key: Hashable) -> "AtomicityReport":
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
    violations: List[Violation] = []
    versions: Dict[int, int] = {}
    for report in by_key.values():
        violations.extend(report.violations)
        versions.update(report.versions)
    return make_report(tuple(violations), versions, by_key)


def check_swmr_atomicity(
    records: Iterable[OperationRecord],
) -> AtomicityReport:
    """Check a (keyed) register history for atomicity.

    Partitions by key and checks each register independently; see the
    module docstring.
    """
    return check_by_key(
        records,
        _check_register,
        lambda violations, versions, by_key: AtomicityReport(
            violations, versions, by_key=by_key
        ),
    )


def _check_register(records: Sequence[OperationRecord]) -> AtomicityReport:
    """Atomicity of one register's history (the pre-keyed checker body)."""
    records = list(records)
    writes = sorted(
        (r for r in records if r.kind == "write"),
        key=lambda r: r.invoked_at,
    )
    reads = [r for r in records if r.kind == "read"]
    violations: List[Violation] = []

    if _has_concurrent_writers(writes):
        # Multi-writer register: outside the SWMR characterization —
        # decided by the generic Wing–Gong checker on this key alone.
        if is_linearizable(records):
            return AtomicityReport((), {})
        return AtomicityReport(
            (
                Violation(
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
                Violation(
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
                Violation(
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
                    Violation(
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
                        Violation(
                            "read-inversion",
                            f"read by {second.process} returned an older "
                            f"version than the preceding read by "
                            f"{first.process}",
                            (first, second),
                        )
                    )

    return AtomicityReport(tuple(violations), read_versions)


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
