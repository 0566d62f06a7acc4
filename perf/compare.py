"""Compare two result files of ``perf/run.py`` (the whole-suite form).

    python3 perf/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  One row per (end-to-end metric ×
workload): both reported values, the ratio **B / A** (always with A as its
base), the benchmark's bound and a verdict:

``ok``          B's value is no worse than A's by more than the bound
                (``setup_s``: or by no more than 0.10 s).
``worse``       it is worse by more than the bound — or, for the exact
                metrics (``sim_*``, ``failed_share``), differs at all.
``unresolved``  the values agree within the bound, but one side's runs
                spread (interquartile) wider than the bound and the two
                sides overlap,
                so "unchanged" cannot be told from "worse".  More
                rounds resolve it; a wider bound does not.

Exit code 1 if any row is ``worse``.  ``calls_per_unit`` of the traced
ledger is listed where it changed: it repeats exactly on one commit, so
a change there is a change in the work done, not noise.

**Claiming a gain** takes more than this table.  Run at least ten pairs
of parent and change, alternating which side goes first; claim only if
the change wins nine tenths of the pairs (ties count for neither) and
the medians differ by more than the parent's own interquartile spread;
show the saving in the ledger layer the issue named beforehand; and
repeat on a seed not used while writing the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

if __package__ in (None, ""):  # started as a script: make `perf` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.metrics import END_TO_END, EXACT, FAILED_SHARE  # noqa: E402


def worsening(base: float, candidate: float, better: str) -> float:
    """By what share of ``base`` the candidate is worse (negative: better)."""
    change = (candidate - base) / base
    return change if better == "lower" else -change


def run_spread(row: Dict[str, Any]) -> float:
    """Run-to-run spread of one side as a share of its value: the
    distance between the quartiles of its samples (their whole
    range when there are fewer than four)."""
    values = row.get("values", ())
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low, high = row["min"], row["max"]
    return (high - low) / row["value"]


def verdict(metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    if metric.name in EXACT or metric is FAILED_SHARE:
        return "ok" if a["value"] == b["value"] else "worse"
    if (worsening(a["value"], b["value"], metric.better) > metric.bound
            and abs(b["value"] - a["value"]) > metric.floor):
        return "worse"
    spread = max(run_spread(row) for row in (a, b))
    if metric.better == "lower":
        clear_win = b["max"] < a["min"]
    else:
        clear_win = b["min"] > a["max"]
    if spread > metric.bound and not clear_win:
        return "unresolved"
    return "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[str, str]]:
    """The table as ``(row text, verdict)`` pairs (verdict ``""`` on the
    informational ``calls_per_unit`` rows)."""
    if a["seed"] != b["seed"]:
        raise SystemExit(
            f"seeds differ ({a['seed']} vs {b['seed']}): the exact "
            f"metrics are only comparable at one seed"
        )
    rows = []
    for workload, base in a["workloads"].items():
        candidate = b["workloads"][workload]
        for metric in END_TO_END + (FAILED_SHARE,):
            left = base["end_to_end"][metric.name]
            right = candidate["end_to_end"][metric.name]
            ratio = (f"{right['value'] / left['value']:.4f}x of A"
                     if left["value"] else "n/a")
            bound = ("exact" if metric.name in EXACT
                     or metric is FAILED_SHARE else f"{metric.bound:.0%}")
            outcome = verdict(metric, left, right)
            rows.append((
                f"{workload:<20} {metric.name:<20} "
                f"A={left['value']:<12.6g} B={right['value']:<12.6g} "
                f"{metric.unit:<12} B/A={ratio:<16} bound={bound:<6} "
                f"{outcome}",
                outcome,
            ))
        changed = [
            name for name, row in base.get("per_layer", {}).items()
            if name.endswith(".calls_per_unit")
            and row["value"] != candidate["per_layer"][name]["value"]
        ]
        rows.append((
            f"{workload:<20} calls_per_unit changed in: "
            f"{', '.join(changed) if changed else 'none'}",
            "",
        ))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    rows = compare(a, b)
    print("\n".join(text for text, _ in rows))
    return 1 if any(outcome == "worse" for _, outcome in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
