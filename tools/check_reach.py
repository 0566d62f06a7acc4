"""Reachability gate: every function under ``src/repro/`` is entered by
a reproduction surface, or the allowlist says why not.

Run from the repository root (CI's ``gates`` job does)::

    python tools/check_reach.py          # the gate
    python tools/check_reach.py --list   # every never-entered def
    python tools/check_reach.py --lines  # what never ran inside the rest

Code that only tests call does not belong in ``src/`` (ROADMAP
invariant 9).  This gate measures it: it enumerates every ``def`` under
``src/repro/`` with :mod:`ast`, runs the surface below once under
:func:`sys.setprofile`, and fails on

* a ``def`` that nothing entered and that :data:`ALLOWLIST` does not
  name — delete it and move its tests to the API that runs, or give it
  a surface;
* an allowlist line whose ``def`` was entered or no longer exists, or
  whose reason is neither one of :data:`REASONS` nor ``group (b|c),
  ROADMAP item N`` with ``N`` an open item.  Test-only API (ROADMAP
  item 17's old group (a)) is not a reason: it leaves ``src/``.

The surface is what a reader reproducing the paper runs:

* the 13 ``paper-exhibits`` grids and the four other ``perf/`` soaks at
  scale 0.02, read through ``perf/job.py`` as the benchmark reads them
  (``sharded-zipf`` also through its traced per-shard path);
* E13's two grids, E16 (through ``capacity.emit``, the
  ``BENCH_quorums.json`` emitter) and E17's two grids;
* ``benchmarks/bench_workload.py``'s ``cases`` and ``soak`` rows, one
  3 000-op row of each of its four ``stream`` families and of its
  4-shard ``sharded`` rows, and ``benchmarks/bench_sweep.py``'s
  emission (the artifacts go to a temporary directory);
* the seven ``examples/``, their output discarded.

Everything runs in this one process.  A sharded spec runs its shards
in-process: while it runs, this process counts as daemonic, which sends
``sharding.map_in_pool`` down its in-process branch.  What a forked pool
child runs (the multiprocessing grid backend of
``examples/parameter_sweep.py``) is not seen, so its entry points are
allowlisted.  Takes about 35-45 s on a 2-core host.

``--lines`` is a report, not a gate: it runs the same surface under
:func:`sys.settrace` and prints, for every entered ``def``, the spans
of its body that never ran — an input form or a branch that no surface
takes inside a ``def`` that one does.  It reads the lines of each
``def``'s own code object (a lambda or comprehension in it is a code
object of its own and is not listed).
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import multiprocessing
import re
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, Tuple

from _gate import finish
from check_docs import open_items

ROOT = Path(__file__).resolve().parents[1]

#: The committed allowlist: ``path::qualname  reason`` per line.
ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"

#: Why a ``def`` may stay although no surface enters it.
REASONS = (
    "repr / label",            # text a reader asks for
    "error raise",             # builds or raises an error or a refusal
    "base default",            # every class a run builds overrides it
    "pool child entry point",  # runs where the profile cannot see
    "safety path",             # no fault-free run takes it
    "oracle seam",             # a differential oracle or a digest reads it
)
#: ROADMAP item 17's groups: a registered row (b) or a paper artifact
#: (c) that still needs a surface.
DEFERRED = re.compile(r"^group \((b|c)\), ROADMAP item (\d+)$")

Location = Tuple[str, int]


def definitions(package: Path) -> Dict[Location, str]:
    """``(file, first line) -> "path::qualname"`` for every ``def`` under
    ``package`` — the first line as a code object records it (a
    decorated function starts at its first decorator)."""
    found: Dict[Location, str] = {}

    def visit(node: ast.AST, prefix: str, path: Path, rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, rel)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    decorator.lineno for decorator in child.decorator_list
                ])
                found[str(path), first] = f"{rel}::{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.", path, rel)
            else:
                visit(child, prefix, path, rel)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()
        visit(ast.parse(path.read_text()), "", path.resolve(), rel)
    return found


def entered(surface: Callable[[], None]) -> Set[Location]:
    """The ``(file, first line)`` of every Python function that
    ``surface`` entered."""
    codes = set()
    add = codes.add

    def hook(frame, event, arg):
        add(frame.f_code)

    sys.setprofile(hook)
    try:
        surface()
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def unrun_spans(package: Path, surface: Callable[[], None]
                ) -> Dict[str, List[Tuple[int, int]]]:
    """``"path::qualname" -> [(first, last), ...]`` for every ``def``
    under ``package`` that ``surface`` entered without running all of
    its body: each span is a run of the code's line starts (the def line
    aside) that never ran, consecutive in the code's own line order."""
    prefix = str(package.resolve())
    ran: Dict[Location, Set[int]] = {}
    starts: Dict[Location, Set[int]] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        place = code.co_filename, code.co_firstlineno
        if place not in ran:
            ran[place] = set()
            starts[place] = {line for _, line in dis.findlinestarts(code)
                             if line is not None} - {code.co_firstlineno}
        lines = ran[place]

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    sys.settrace(hook)
    try:
        surface()
    finally:
        sys.settrace(None)
    report = {}
    for place, name in definitions(package).items():
        if place not in ran:
            continue
        spans: List[Tuple[int, int]] = []
        open_span = False
        for line in sorted(starts[place]):
            if line in ran[place]:
                open_span = False
            elif open_span:
                spans[-1] = spans[-1][0], line
            else:
                spans.append((line, line))
                open_span = True
        if spans:
            report[name] = spans
    return report


def read_allowlist(path: Path) -> Dict[str, str]:
    """``name -> reason`` from ``path`` (``#`` starts a comment)."""
    allowed = {}
    for line in path.read_text().splitlines():
        line = line.partition("#")[0].strip()
        if line:
            name, reason = line.split(None, 1)
            allowed[name] = reason.strip()
    return allowed


def never_entered(package: Path, surface: Callable[[], None]) -> List[str]:
    """The names of the ``def``s under ``package`` that ``surface``
    never entered, sorted."""
    defs = definitions(package)
    seen = entered(surface)
    return sorted({name for place, name in defs.items() if place not in seen})


def lint(root: Path, allowed: Dict[str, str]) -> List[str]:
    """Allowlist lines that name no ``def`` under ``root``'s
    ``src/repro`` or give no known reason."""
    names = set(definitions(root / "src" / "repro").values())
    items = open_items(root)
    problems = []
    for name, reason in sorted(allowed.items()):
        deferred = DEFERRED.match(reason)
        if name not in names:
            problems.append(f"allowlisted, no such def: {name}")
        if deferred and int(deferred.group(2)) not in items:
            problems.append(
                f"allowlisted for no open ROADMAP item: {name} ({reason})"
            )
        elif not deferred and reason not in REASONS:
            problems.append(f"allowlisted for no known reason: {name} "
                            f"({reason!r})")
    return problems


def check(root: Path, surface: Callable[[], None],
          allowed: Dict[str, str]) -> List[str]:
    """Every problem of ``root``'s ``src/repro`` against ``surface`` and
    the allowlist ``allowed``."""
    package = root / "src" / "repro"
    names = set(definitions(package).values())
    dead = never_entered(package, surface)
    return [
        f"never entered, not allowlisted: {name}"
        for name in dead if name not in allowed
    ] + [
        f"allowlisted, but entered: {name}"
        for name in sorted(set(allowed) & names - set(dead))
    ] + lint(root, allowed)


# -- the surface -------------------------------------------------------------


@contextlib.contextmanager
def daemonic():
    """Run sharded specs serially in-process (``map_in_pool`` forks no
    pool from a daemonic process)."""
    config = multiprocessing.current_process()._config
    config["daemon"] = True
    try:
        yield
    finally:
        del config["daemon"]


def perf_workloads() -> None:
    """Every ``perf/`` workload at scale 0.02 (the exhibits do not
    scale), its outcome read as ``perf/job.py`` reads it."""
    from perf import job as jobs
    from perf.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        job = workload.build(5, 0.02)
        for traced in (False, True) if name == "sharded-zipf" else (False,):
            results = [call() for _, call in jobs.steps(job, traced)]
            if name == "paper-exhibits":
                jobs.exhibit_facts(results)
                continue
            jobs.soak_facts(results)
            if not traced and results[0].n_shards > 1:
                jobs.sharding_facts(results[0])


def exhibits(scratch: Path) -> None:
    """E13's two grids, E16 and E17's two grids."""
    from repro.experiments import batched, capacity, metrics_ablation
    from repro.scenarios import run_grid

    run_grid(metrics_ablation.ablation_grid((0.0, 0.05, 0.1, 0.2, 0.3)))
    run_grid(metrics_ablation.search_grid((4, 5, 6)))
    capacity.emit(scratch)
    for grid in (batched.TAIL_GRID, batched.FABRICATOR_GRID):
        run_grid(grid).table()


def bench_rows(scratch: Path) -> None:
    """``bench_workload``'s ``cases`` / ``soak`` rows, a 3 000-op row of
    each ``stream`` family and of its 4-shard ``sharded`` row, and the
    ``BENCH_sweep.json`` emission."""
    from benchmarks import bench_sweep, bench_workload as bench

    for section in ("cases", "soak"):
        for _, labels, spec in bench.SECTIONS[section]:
            bench.measure(section, labels, spec)
    families = {}
    for _, labels, spec in bench.SECTIONS["stream"]:
        families.setdefault(labels["label"], (labels, spec))
    for labels, spec in families.values():
        bench.measure("stream", dict(labels, max_ops=3000),
                      spec.with_(max_ops=3000))
    _, labels, spec = next(row for row in bench.SECTIONS["sharded"]
                           if row[1]["shards"] == 4)
    with daemonic():
        bench.measure("sharded", dict(labels, max_ops=3000),
                      spec.with_(max_ops=3000))
    bench_sweep.emit(scratch)


def examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def surface() -> None:
    with daemonic():
        perf_workloads()
    with tempfile.TemporaryDirectory() as scratch:
        exhibits(Path(scratch))
        bench_rows(Path(scratch))
    examples()


def main(argv: Iterable[str] = ()) -> int:
    for path in (ROOT, ROOT / "src"):
        sys.path.insert(0, str(path))
    if "--list" in argv:
        dead = never_entered(ROOT / "src" / "repro", surface)
        print("\n".join(dead))
        print(f"{len(dead)} of {len(definitions(ROOT / 'src' / 'repro'))} "
              f"defs never entered")
        return 0
    if "--lines" in argv:
        report = unrun_spans(ROOT / "src" / "repro", surface)
        for name, spans in sorted(report.items()):
            print(f"{name}  " + ", ".join(
                str(first) if first == last else f"{first}-{last}"
                for first, last in spans
            ))
        print(f"{sum(map(len, report.values()))} spans in {len(report)} "
              f"entered defs never ran")
        return 0
    allowed = read_allowlist(ALLOWLIST)
    return finish(
        check(ROOT, surface, allowed),
        f"reach ok: every def under src/repro/ is entered by the "
        f"reproduction surface or allowlisted ({len(allowed)} lines in "
        f"{ALLOWLIST.relative_to(ROOT)})",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
