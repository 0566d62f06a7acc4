"""The gate engine: one interpreter for the artifact tables.

``tools/check_bench.py`` describes each committed ``BENCH_*.json`` as an
:class:`Artifact` of :class:`Section` tables; :func:`check` holds a
table against the committed baseline and a fresh regeneration and
returns every violation as one line naming the rule it broke.  What a
table can say:

* **required / fresh_only / key** — the shape.  A payload that fails it
  is reported and nothing else is looked at.
* **exact + covered** — simulated executions are machine-independent, so
  the ``exact`` fields of a regenerated row equal the committed row's
  bit for bit.  ``covered`` says which committed rows a regeneration
  re-measures; a covered row the fresh side lacks, or a fresh row the
  baseline lacks, is a problem — rows are never silently intersected,
  so the gate cannot pass on rows it did not compare.
* **rules** — row invariants, held on every row of both sides.
* **ratios** — gates between two rows of *one* artifact (same run, same
  box: what makes a ratio of wall-clock or RSS figures meaningful).
  Held on the committed artifact; ``fresh=True`` also on the
  regeneration.  A ratio that finds no pair to compare fails.
* **accept** — rows the committed artifact must carry (the full-run
  sizes CI is too small to regenerate).
* **budget** — a wall-clock *timeout* per fresh row, not a speed claim
  (speed lives in ``perf/``, on interleaved pairs).
* **extras** — the few facts that are not row-shaped, as functions over
  the indexed rows.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union,
)

Row = Dict[str, Any]
Key = Tuple[Any, ...]
Rows = Dict[Key, Row]


class Rule(NamedTuple):
    """A row invariant; ``why`` is what a violation means."""

    name: str
    holds: Callable[[Row], bool]
    why: str


class Ratio(NamedTuple):
    """``row[field] / partner_row[field]`` must lie in ``[least, most]``
    for every row whose key ``partner`` maps to a present row."""

    name: str
    field: str
    partner: Callable[[Key], Optional[Key]]
    why: str
    least: float = 0.0
    most: float = float("inf")
    fresh: bool = False


class Section(NamedTuple):
    name: str  # the payload key: a list of rows, or one row
    key: Tuple[str, ...]
    required: Tuple[str, ...]
    exact: Tuple[str, ...]
    covered: Callable[[Row], bool] = lambda row: True
    fresh_only: Tuple[str, ...] = ()
    rules: Tuple[Rule, ...] = ()
    ratios: Tuple[Ratio, ...] = ()
    accept: Tuple[Tuple[str, Callable[[Key], bool]], ...] = ()
    budget: Optional[Callable[[Row], float]] = None
    extras: Tuple[Callable[[str, Rows], List[str]], ...] = ()


class Artifact(NamedTuple):
    name: str  # BENCH_<name>.json, and the payload's "name"
    top: Tuple[str, ...]  # top-level keys beside "name" and the sections
    sections: Tuple[Section, ...]
    #: What regenerates it: a module with a ``collect()``, by name (it
    #: is imported only when asked to), or the function itself.
    collector: Union[str, Callable[[], dict]]
    #: The committed side when it is not a ``BENCH_<name>.json``: facts
    #: small enough to be written down next to their table.
    baseline: Optional[dict] = None


def show(key: Key) -> str:
    return "/".join(str(part) for part in key) or "-"


def rows_of(section: Section, payload: dict) -> List[Row]:
    rows = payload[section.name]
    return rows if isinstance(rows, list) else [rows]


def shape_problems(artifact: Artifact, payload: dict, side: str) -> List[str]:
    sections = (section.name for section in artifact.sections)
    problems = [
        f"{side}: missing top-level key {field!r}"
        for field in ("name", *artifact.top, *sections)
        if field not in payload
    ]
    if problems:
        return problems
    if payload["name"] != artifact.name:
        problems.append(f"{side}: name is {payload['name']!r}")
    for section in artifact.sections:
        needed = section.required + (
            section.fresh_only if side == "fresh" else ()
        )
        seen = set()
        for row in rows_of(section, payload):
            key = tuple(row.get(field, "?") for field in section.key)
            missing = [field for field in needed if field not in row]
            if missing:
                problems.append(
                    f"{side}: {section.name} row {show(key)} lacks {missing}"
                )
            elif key in seen:
                problems.append(
                    f"{side}: {section.name} row {show(key)} appears twice"
                )
            seen.add(key)
    return problems


def index(section: Section, payload: dict) -> Rows:
    return {
        tuple(row[field] for field in section.key): row
        for row in rows_of(section, payload)
    }


def ratio_problems(
    section: Section, ratio: Ratio, side: str, rows: Rows
) -> List[str]:
    problems, compared = [], 0
    for key, row in rows.items():
        other = ratio.partner(key)
        if other is None or other not in rows:
            continue
        compared += 1
        top, bottom = row[ratio.field], rows[other][ratio.field]
        if not bottom or not ratio.least <= top / bottom <= ratio.most:
            problems.append(
                f"{side}: {section.name} {ratio.name}: row {show(key)} has "
                f"{top} {ratio.field} against {bottom} on row {show(other)} "
                f"(need {ratio.least}x..{ratio.most}x) — {ratio.why}"
            )
    if not compared:
        problems.append(
            f"{side}: {section.name} {ratio.name}: no pair of rows to "
            f"compare — the gate cannot run"
        )
    return problems


def compare_problems(section: Section, base: Rows, fresh: Rows) -> List[str]:
    """Coverage, exact fields and the budget — everything that looks at
    the fresh side next to the committed one."""
    where = section.name
    problems = [
        f"{where} row {show(key)} was not regenerated (the table says a "
        f"regeneration covers it)"
        for key, row in base.items()
        if section.covered(row) and key not in fresh
    ]
    for key, row in fresh.items():
        if section.budget and row["wall_s"] > section.budget(row):
            problems.append(
                f"fresh {where} row {show(key)} blew its wall budget: "
                f"{row['wall_s']}s > {section.budget(row):.1f}s"
            )
        if key not in base:
            problems.append(
                f"fresh {where} row {show(key)} has no committed counterpart"
            )
            continue
        for field in section.exact:
            if row[field] != base[key][field]:
                problems.append(
                    f"{where} row {show(key)}: {field} changed "
                    f"{base[key][field]} -> {row[field]} (simulated "
                    f"executions are deterministic: a behaviour "
                    f"regression, not noise)"
                )
    return problems


def check(artifact: Artifact, baseline: dict, fresh: dict) -> List[str]:
    """Every violation of ``artifact``'s tables, one line each."""
    problems = shape_problems(artifact, baseline, "baseline")
    problems += shape_problems(artifact, fresh, "fresh")
    if problems:
        return problems
    for section in artifact.sections:
        base, new = index(section, baseline), index(section, fresh)
        for side, rows in (("baseline", base), ("fresh", new)):
            for key, row in rows.items():
                problems += [
                    f"{side}: {section.name} row {show(key)} breaks "
                    f"{rule.name!r} — {rule.why}"
                    for rule in section.rules if not rule.holds(row)
                ]
            for ratio in section.ratios:
                if side == "baseline" or ratio.fresh:
                    problems += ratio_problems(section, ratio, side, rows)
            for extra in section.extras:
                problems += extra(side, rows)
        problems += [
            f"baseline: {section.name} lacks the acceptance row {what} "
            f"(record it with `python -m benchmarks.bench_workload "
            f"--full-stream`)"
            for what, matches in section.accept
            if not any(matches(key) for key in base)
        ]
        problems += compare_problems(section, base, new)
    return problems


def finish(problems: Iterable[str], ok_message: str) -> int:
    """Print the verdict and return the process exit code."""
    problems = list(problems)
    if problems:
        print(f"FAIL: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(ok_message)
    return 0
