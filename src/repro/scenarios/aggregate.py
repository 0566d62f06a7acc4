"""Aggregation of sweep executions into portable result tables.

A grid run (:func:`repro.scenarios.sweeps.run_grid`) produces one
:class:`CellResult` per grid cell — the cell's axis coordinates, an
``ok`` flag, an optional protocol ``verdict`` (``"atomic"``, ``"ok"``,
``"violation"``, …) and a flat JSON-safe ``metrics`` mapping — and
bundles them into a :class:`SweepResult`.

The bundle is deliberately *portable*: every metric is a JSON-safe
value, and the canonical JSON rendering is byte-identical no matter
which executor produced it (serial or multiprocessing), which is what
makes sweep outputs diffable artifacts.
``BENCH_*.json`` perf-trajectory files are written with
:func:`write_bench_json`.

Summary statistics use nearest-rank percentiles (:func:`percentile`) so
``p50``/``p99`` are always values that actually occurred.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.streaming import nearest_rank
from repro.errors import ScenarioError

#: Column names a sweep axis may not use (they anchor the CSV layout).
RESERVED_COLUMNS = ("index", "ok", "verdict", "error")


# -- canonical JSON-safe values ------------------------------------------------

def jsonable(value: Any) -> Any:
    """``value`` converted to a canonical JSON-safe equivalent.

    Mappings become string-keyed dicts, sequences become lists, sets are
    sorted, and anything else non-primitive collapses to ``repr``.  The
    conversion is deterministic, so two executions of the same sweep —
    on any executor backend — serialize byte-identically.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # Strict JSON has no NaN/Infinity tokens; stringify them so the
        # export stays RFC 8259-parseable everywhere.
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return repr(value)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in [0, 100]) — the
    rank rule of :func:`repro.analysis.streaming.nearest_rank`."""
    if not values:
        raise ScenarioError("percentile of an empty sequence")
    return nearest_rank(sorted(values), p / 100)


def summary_stats(values: Sequence[float]) -> Dict[str, float]:
    """``count``/``mean``/``min``/``p50``/``p99``/``max`` of ``values``."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean": round(sum(values) / len(values), 9),
        "min": min(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "max": max(values),
    }


# -- one cell ------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """The outcome of one grid cell.

    ``point`` maps axis names to their *labels* (strings — the portable
    coordinates of the cell).  ``ok`` is False when the cell raised; the
    exception is summarized in ``error`` and the other cells of the
    sweep are unaffected.  ``result`` optionally carries the live
    :class:`~repro.scenarios.result.RunResult` handle when the sweep ran
    in-process — it is excluded from comparisons and never exported.
    """

    index: int
    point: Mapping[str, str]
    ok: bool
    verdict: Optional[str] = None
    metrics: Mapping[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    result: Optional[Any] = field(
        default=None, compare=False, repr=False
    )

    def require(self) -> "CellResult":
        """This cell, raising its captured error if it failed.

        Use before reading ``metrics`` in reporting code so a cell that
        was isolated by the executor surfaces its real error instead of
        a missing-metric ``KeyError``.
        """
        if not self.ok:
            raise ScenarioError(
                f"cell {self.index} {dict(self.point)} failed: {self.error}"
            )
        return self

    def unwrap(self) -> Any:
        """The live :class:`RunResult` handle, or a clear error.

        Raises when the cell failed (propagating its captured error) or
        when the cell ran out-of-process and carries portable metrics
        only (multiprocessing backend).
        """
        self.require()
        if self.result is None:
            raise ScenarioError(
                f"cell {self.index} {dict(self.point)} has no live result "
                f"handle; run the sweep on the serial executor"
            )
        return self.result

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "point": dict(self.point),
            "ok": self.ok,
            "verdict": self.verdict,
            "metrics": dict(self.metrics),
            "error": self.error,
        }


# -- the aggregated table ------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Every cell of one executed sweep, plus the grid's axis labels.

    The table is queryable (:meth:`select`, :meth:`cell`,
    :meth:`verdict_counts`, :meth:`summarize`) and exportable
    (:meth:`to_json` / :meth:`to_csv`).
    """

    name: str
    axes: Tuple[Tuple[str, Tuple[str, ...]], ...]
    cells: Tuple[CellResult, ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "axes",
            tuple((str(n), tuple(labels)) for n, labels in self.axes),
        )
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    # -- queries --------------------------------------------------------------

    def select(self, **filters: Any) -> Tuple[CellResult, ...]:
        """Cells whose axis labels match every filter, read as
        :meth:`SweepSpec.where <repro.scenarios.sweeps.SweepSpec.where>`
        reads them (:func:`filter_labels`): a label the sweep does not
        have raises instead of matching nothing."""
        wanted = filter_labels(self.name, self.axes, filters)
        return tuple(
            c for c in self.cells
            if all(c.point.get(k) in v for k, v in wanted.items())
        )

    def cell(self, **filters: Any) -> CellResult:
        """The unique cell matching ``filters``."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise ScenarioError(
                f"expected exactly one cell for {filters!r} in sweep "
                f"{self.name!r}, found {len(matches)}"
            )
        return matches[0]

    def failures(self) -> Tuple[CellResult, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def verdict_counts(self) -> Dict[str, int]:
        """``{verdict: cell count}``, failed cells counted as ``"error"``."""
        counts: Dict[str, int] = {}
        for c in self.cells:
            key = c.verdict if c.ok else "error"
            if key is None:
                continue
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def metric_values(self, key: str, **filters: Any) -> List[float]:
        """Numeric values of ``metrics[key]`` over matching ok cells
        (dotted keys reach into nested summaries: ``"latency.p99"``)."""
        out: List[float] = []
        for c in self.select(**filters) if filters else self.cells:
            if not c.ok:
                continue
            value: Any = c.metrics
            for part in key.split("."):
                if not isinstance(value, Mapping) or part not in value:
                    value = None
                    break
                value = value[part]
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out.append(value)
        return out

    def summarize(self, key: str, **filters: Any) -> Dict[str, float]:
        """mean/p50/p99 summary of one numeric metric across cells."""
        return summary_stats(self.metric_values(key, **filters))

    def table(self) -> List[str]:
        """Human-readable one-line-per-cell rendering."""
        rows = []
        for c in self.cells:
            coords = " ".join(f"{k}={v}" for k, v in c.point.items())
            if not c.ok:
                rows.append(f"[{c.index:>3}] {coords}  ERROR {c.error}")
                continue
            verdict = f"  {c.verdict}" if c.verdict else ""
            nums = " ".join(
                f"{k}={v}" for k, v in c.metrics.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            )
            rows.append(f"[{c.index:>3}] {coords}{verdict}  {nums}".rstrip())
        return rows

    # -- JSON -----------------------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "sweep": self.name,
            "axes": [[name, list(labels)] for name, labels in self.axes],
            "cells": [c.to_jsonable() for c in self.cells],
            "verdicts": self.verdict_counts(),
            "metadata": dict(self.metadata),
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical across executor backends."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"

    # -- CSV ------------------------------------------------------------------

    def metric_columns(self) -> Tuple[str, ...]:
        keys = set()
        for c in self.cells:
            keys.update(c.metrics)
        return tuple(sorted(keys))

    def to_csv(self) -> str:
        """One row per cell: ``index``, one column per axis, ``ok``,
        ``verdict``, ``error``, then one JSON-encoded column per metric
        key (JSON-encoding keeps numeric/str/nested values lossless)."""
        buffer = io.StringIO()
        metric_keys = self.metric_columns()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["index", *self.axis_names, "ok", "verdict", "error",
             *metric_keys]
        )
        for c in self.cells:
            writer.writerow(
                [
                    c.index,
                    *(c.point[a] for a in self.axis_names),
                    "true" if c.ok else "false",
                    c.verdict or "",
                    c.error or "",
                    *(
                        json.dumps(c.metrics[k], sort_keys=True)
                        if k in c.metrics else ""
                        for k in metric_keys
                    ),
                ]
            )
        return buffer.getvalue()


@dataclass(frozen=True)
class AxisValue:
    """An axis value with an explicit human-readable label.

    Use :func:`labeled` for axis entries whose ``repr`` would be noisy
    as a table coordinate (fault plans, whole spec literals, tuples).
    """

    label: str
    value: Any


def labeled(label: str, value: Any) -> AxisValue:
    """``AxisValue(label, value)`` — the readable-coordinates helper."""
    return AxisValue(label, value)


def axis_label(value: Any) -> str:
    """The portable string coordinate of one axis value — shared by
    grid expansion and every filter, so the two always agree."""
    if isinstance(value, AxisValue):
        return value.label
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, float)):
        return str(value)
    return repr(value)


def filter_labels(
    name: str,
    axes: Sequence[Tuple[str, Sequence[str]]],
    filters: Mapping[str, Any],
) -> Dict[str, FrozenSet[str]]:
    """``filters`` as ``{axis: the labels it keeps}``, for sweep
    ``name`` whose ``axes`` are ``(axis, labels)`` pairs.

    A filter value is one axis value or a list / tuple / set of them,
    each compared by :func:`axis_label` (``seed=3`` keeps ``"3"``, a
    :func:`labeled` value its label).  An unknown axis, or a label its
    axis does not have, raises: a query that can match nothing is a
    typo, not an empty answer.
    """
    known = dict(axes)
    unknown = set(filters) - set(known)
    if unknown:
        raise ScenarioError(
            f"unknown axes {sorted(unknown)}; sweep {name!r} has {list(known)}"
        )
    wanted: Dict[str, FrozenSet[str]] = {}
    for axis, value in filters.items():
        values = (
            value if isinstance(value, (list, tuple, set, frozenset))
            else (value,)
        )
        labels = frozenset(axis_label(v) for v in values)
        missing = labels.difference(known[axis])
        if missing or not labels:
            raise ScenarioError(
                f"axis {axis!r} has no value matching {sorted(missing)}; "
                f"values: {', '.join(known[axis])}"
            )
        wanted[axis] = labels
    return wanted


# -- BENCH_*.json emission -----------------------------------------------------

def write_bench_json(
    result: SweepResult, directory: Union[str, Path] = "."
) -> Path:
    """Write ``BENCH_<name>.json`` for the perf trajectory.

    The file is the canonical :meth:`SweepResult.to_json` rendering, so
    successive runs of the same sweep diff cleanly.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in result.name
    )
    path = Path(directory) / f"BENCH_{safe}.json"
    path.write_text(result.to_json())
    return path
