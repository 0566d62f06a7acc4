"""Declarative spec-grid sweeps: expand, execute, aggregate.

A :class:`SweepSpec` is the repository's second invariant in code form:
**new figure = new grid literal**.  It names a grid of axes (protocol
ids × RQS constructions × fault plans × seeds × anything else), expands
the cross product into frozen :class:`~repro.scenarios.spec.ScenarioSpec`
cells in a deterministic row-major order, runs every cell through
:func:`repro.scenarios.runner.run` on a pluggable executor (serial or
``multiprocessing``), and aggregates the per-cell measurements into a
portable :class:`~repro.scenarios.aggregate.SweepResult` table.

Guarantees:

* **Deterministic expansion** — cell order and cell seeds are a pure
  function of the grid literal, never of execution order, so any two
  backends produce byte-identical aggregated JSON.
* **Failure isolation** — a cell that raises is recorded as a failed
  :class:`~repro.scenarios.aggregate.CellResult` (``ok=False`` with the
  exception summarized) and every other cell still runs.
* **Portability** — cell metrics are canonicalized to JSON-safe values
  at measurement time, so results cross process boundaries and export
  to JSON/CSV unchanged.

Three hooks cover every experiment shape: ``build`` (grid point →
``ScenarioSpec``; without it, spec-field axes are applied onto
``base``, and a scenario sweep needs one of the two), ``measure``
(point + :class:`~repro.scenarios.result.RunResult` → metrics mapping;
defaults to :func:`default_measure`), and ``evaluate`` (point →
metrics, for analytic sweeps that never run a scenario).  Any callable
serves on either backend: the multiprocessing workers inherit the sweep
by fork.

Doctest — a 2-protocol × 2-seed grid in four lines::

    >>> from repro.scenarios import ScenarioSpec, Write, Read
    >>> from repro.scenarios.sweeps import SweepSpec, run_grid
    >>> grid = SweepSpec(
    ...     name="doctest",
    ...     axes={"protocol": ("abd", "fastabd"), "seed": (0, 1)},
    ...     base=ScenarioSpec(protocol="abd", readers=1,
    ...                       workload=(Write(0.0, "v"), Read(5.0))),
    ... )
    >>> [cell.labels["protocol"] for cell in grid.cells()]
    ['abd', 'abd', 'fastabd', 'fastabd']
    >>> result = run_grid(grid)
    >>> result.verdict_counts()
    {'atomic': 4}
    >>> (cell,) = result.select(protocol="abd", seed=0)
    >>> cell.metrics["operations"]
    2
"""

from __future__ import annotations

import itertools
import os
from dataclasses import fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ScenarioError
from repro.records import record
from repro.scenarios.aggregate import (
    RESERVED_COLUMNS,
    AxisValue,
    CellResult,
    SweepResult,
    axis_label,
    jsonable,
    summary_stats,
)
from repro.scenarios.registry import get_protocol
from repro.scenarios.result import RunResult, soak_row
from repro.scenarios.runner import run
from repro.scenarios.spec import ScenarioSpec

#: ScenarioSpec field names the default builder applies from grid points.
SPEC_FIELDS = frozenset(f.name for f in fields(ScenarioSpec))

Point = Mapping[str, Any]
BuildHook = Callable[[Point], ScenarioSpec]
MeasureHook = Callable[[Point, RunResult], Mapping[str, Any]]
EvaluateHook = Callable[[Point], Mapping[str, Any]]


# -- axis values ---------------------------------------------------------------

def axis_value(value: Any) -> Any:
    return value.value if isinstance(value, AxisValue) else value


# -- the grid ------------------------------------------------------------------

@record(frozen=True)
class Cell:
    """One expanded grid point: raw values plus portable labels."""

    index: int
    point: Mapping[str, Any]
    labels: Mapping[str, str]


@record(frozen=True)
class SweepSpec:
    """A declarative grid of scenarios (or analytic evaluations).

    Parameters
    ----------
    name:
        The sweep's identity — names exported artifacts
        (``BENCH_<name>.json``).
    axes:
        Ordered mapping ``axis name -> values`` (the one form).
        Values may be plain objects or :func:`labeled` pairs; the cross
        product expands in row-major order (last axis fastest).  The
        ids on a ``protocol`` axis are resolved when the grid is built,
        as a spec's are: an unknown one raises
        :class:`~repro.errors.UnknownProtocolError` here.
    base:
        Template spec for the default builder; axes named after
        ``ScenarioSpec`` fields (``protocol``, ``rqs``, ``seed``,
        ``faults``, ``workload``, …) are applied onto it per cell.  A
        scenario sweep needs ``base`` or ``build``.
    build:
        Custom point → ``ScenarioSpec`` hook (overrides ``base``).
    measure:
        Custom (point, RunResult) → metrics hook; defaults to
        :func:`default_measure`.  A ``"verdict"`` key is lifted onto the
        cell result.
    evaluate:
        Analytic hook (point → metrics) for sweeps with no scenario to
        execute (closed-form/metric sweeps); mutually exclusive with
        ``base``/``build``/``measure``.
    """

    name: str
    axes: Any
    base: Optional[ScenarioSpec] = None
    build: Optional[BuildHook] = None
    measure: Optional[MeasureHook] = None
    evaluate: Optional[EvaluateHook] = None

    def __post_init__(self):
        if not self.name:
            raise ScenarioError("a sweep needs a name")
        if not isinstance(self.axes, Mapping):
            raise ScenarioError(
                f"sweep {self.name!r}: axes must be a mapping of axis "
                f"name -> values; got {self.axes!r}"
            )
        normalized = []
        for name, values in self.axes.items():
            if name in RESERVED_COLUMNS:
                raise ScenarioError(
                    f"axis name {name!r} is reserved "
                    f"(reserved: {', '.join(RESERVED_COLUMNS)})"
                )
            values = tuple(values)
            if not values:
                raise ScenarioError(f"axis {name!r} has no values")
            normalized.append((str(name), values))
        if not normalized:
            raise ScenarioError(f"sweep {self.name!r} has no axes")
        object.__setattr__(self, "axes", tuple(normalized))
        # As a spec does: the protocols a grid names are imported (and
        # an unknown id raises) where the grid literal is built.
        for name, values in normalized:
            if name == "protocol":
                for value in values:
                    get_protocol(axis_value(value))
        if self.evaluate is not None and (
            self.base is not None
            or self.build is not None
            or self.measure is not None
        ):
            raise ScenarioError(
                "evaluate sweeps are analytic: they take no "
                "base/build/measure hooks"
            )
        if self.evaluate is None and self.base is None and self.build is None:
            raise ScenarioError(
                f"sweep {self.name!r} runs scenarios: give it a base spec "
                f"or a build hook (or an evaluate hook for an analytic "
                f"sweep)"
            )

    # -- expansion ------------------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def cells(self) -> Tuple[Cell, ...]:
        """Every grid point, in deterministic row-major order."""
        names = self.axis_names
        out = []
        for index, combo in enumerate(
            itertools.product(*(values for _, values in self.axes))
        ):
            out.append(
                Cell(
                    index=index,
                    point={n: axis_value(v) for n, v in zip(names, combo)},
                    labels={n: axis_label(v) for n, v in zip(names, combo)},
                )
            )
        return tuple(out)

    def spec_for(self, cell: Cell) -> Optional[ScenarioSpec]:
        """The frozen scenario for one cell (None for analytic sweeps)."""
        if self.evaluate is not None:
            return None
        if self.build is not None:
            return self.build(cell.point)
        return default_build(self.base, cell.point)

    def labels(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """``(axis, its value labels)`` pairs — a result's ``axes``."""
        return tuple(
            (name, tuple(axis_label(v) for v in values))
            for name, values in self.axes
        )


def default_build(base: ScenarioSpec, point: Point) -> ScenarioSpec:
    """Apply the point's spec-field axes onto ``base``.  Non-field axes
    are metadata: they label the cell and reach the measure hook, but
    do not touch the spec."""
    changes = {k: v for k, v in point.items() if k in SPEC_FIELDS}
    return base.with_(**changes) if changes else base


# -- measurement ---------------------------------------------------------------

def default_measure(point: Point, result: RunResult) -> Dict[str, Any]:
    """Protocol-aware default metrics for one executed cell.

    Storage cells verdict on the register checker (the claimed
    semantics, ``"atomic"`` / ``"regular"``, or ``"violation"``);
    consensus cells verdict on the consensus checker and record the
    worst learner delay.  Both record
    operation counts and mean/p50/p99 completion-latency summaries.

    Streamed cells (``TraceLevel.METRICS``, sharded or not) have no
    retained records and report the one flat soak row,
    :func:`repro.scenarios.result.soak_row`: counters, the windowed
    online checker's verdict (``"unchecked"`` when none applied),
    accumulator-backed latency, and everything host-dependent under one
    ``"host"`` key — drop it and two backends agree byte for byte.
    """
    if result.streamed:
        return soak_row(result)
    completed = result.completed
    metrics: Dict[str, Any] = {
        "operations": len(result.records),
        "completed": len(completed),
        "blocked": len(result.blocked),
    }
    kind = getattr(get_protocol(result.spec.protocol), "kind", "storage")
    if kind == "consensus":
        report = result.consensus
        metrics["verdict"] = "ok" if report.ok else "violation"
        metrics["worst_learner_delay"] = result.worst_learner_delay
    else:
        metrics["verdict"] = result.atomicity.verdict
    durations = [r.completed_at - r.invoked_at for r in completed]
    metrics["latency"] = summary_stats(durations)
    rounds = [r.rounds for r in completed if r.rounds]
    if rounds:
        metrics["rounds"] = summary_stats(rounds)
    return metrics


def run_cell(
    sweep: SweepSpec, cell: Cell, keep_result: bool = False
) -> CellResult:
    """Execute one cell with failure isolation.

    Any exception — in the build hook, the run, or the measure hook —
    is captured on the cell result instead of propagating, so one bad
    cell never takes down a sweep.
    """
    result: Optional[RunResult] = None
    try:
        if sweep.evaluate is not None:
            metrics = dict(sweep.evaluate(cell.point) or {})
        else:
            spec = sweep.spec_for(cell)
            result = run(spec)
            measure = sweep.measure or default_measure
            metrics = dict(measure(cell.point, result) or {})
        verdict = metrics.pop("verdict", None)
        return CellResult(
            index=cell.index,
            point=dict(cell.labels),
            ok=True,
            verdict=None if verdict is None else str(verdict),
            metrics=jsonable(metrics),
            result=result if keep_result else None,
        )
    except Exception as exc:  # noqa: BLE001 — per-cell isolation
        return CellResult(
            index=cell.index,
            point=dict(cell.labels),
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
        )


# -- executors -----------------------------------------------------------------

def run_serial(sweep: SweepSpec) -> Tuple[CellResult, ...]:
    """Run every cell in-process, in grid order.

    Each cell result retains its live :class:`RunResult` handle
    (``cell.result``) for rich post-hoc inspection — reports, traces,
    custom checkers.
    """
    return tuple(
        run_cell(sweep, cell, keep_result=True) for cell in sweep.cells()
    )


def run_multiprocessing(
    sweep: SweepSpec, processes: Optional[int] = None
) -> Tuple[CellResult, ...]:
    """Run the grid on :func:`~repro.scenarios.sharding.map_in_pool`.

    Each worker inherits the sweep and its cells by fork, inside the
    mapped function (nothing of them is pickled, so a lambda hook runs
    here as on the serial backend); cell indices go out in contiguous
    runs, ~4 per worker (slack for uneven cell
    costs, one round-trip per run, not per cell), and results come back
    in grid order, byte-identical to the serial backend's.  Live
    ``RunResult`` handles cannot cross processes: cells carry portable
    metrics only.  A worker that dies raises
    :class:`~repro.errors.ScenarioError`.  The pool stack loads on the
    first call, never with the serial backend.
    """
    from repro.scenarios.sharding import map_in_pool

    cells = sweep.cells()
    total = len(cells)
    workers = processes or min(os.cpu_count() or 1, total)
    return map_in_pool(
        lambda index: run_cell(sweep, cells[index]), range(total), workers,
        lost=f"a sweep worker of {sweep.name!r} x {workers} died before "
        f"reporting its cells; nothing is aggregated",
        chunksize=max(1, total // (4 * workers)),
    )[0]


def run_grid(
    sweep: SweepSpec,
    executor: str = "serial",
    processes: Optional[int] = None,
) -> SweepResult:
    """Expand, execute and aggregate one sweep — the grid entry point.

    ``executor`` is ``"serial"`` (default; cells keep their live
    ``RunResult``) or ``"multiprocessing"`` (``processes`` workers,
    default one per core up to the cell count).
    """
    if executor == "serial":
        cells = run_serial(sweep)
    elif executor == "multiprocessing":
        cells = run_multiprocessing(sweep, processes=processes)
    else:
        raise ScenarioError(
            f"unknown executor {executor!r}; use 'serial' or "
            f"'multiprocessing'"
        )
    return SweepResult(name=sweep.name, axes=sweep.labels(), cells=cells)
