"""The gate: the committed bench artifacts, described as tables.

Run from the repository root (CI's ``gates`` job does)::

    PYTHONPATH=src python tools/check_bench.py            # every artifact
    PYTHONPATH=src python tools/check_bench.py workload --fresh run.json

Each artifact (``BENCH_workload.json``, ``BENCH_quorums.json``, and the
``search`` facts written down in this file) is regenerated — or read
from ``--fresh`` — and held against the committed side by the tables
below; ``tools/_gate.py`` interprets them and
documents the table kinds.  Exact fields repeat bit for bit on any
machine (a seeded execution *is* its schedule); ratios compare figures
of one full run on one unloaded box only with each other; budgets are
timeouts.  No fresh wall-clock sample is compared with a committed one:
speed is ``perf/``'s job (``throughput_per_s`` held to 25 % on
interleaved pairs, every PR).  Exits non-zero listing every violation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional

from _gate import (
    Artifact, Ratio, Rows, Rule, Section, check, finish, rows_of,
)

ROOT = Path(__file__).resolve().parent.parent

#: What CI regenerates; the larger sizes are full-run acceptance rows.
CI_OPS = 100_000
FULL_STREAM_OPS = 1_000_000
FULL_SHARDED_OPS = 10_000_000

#: Wall-clock timeouts (seconds): the closed soak, and a million-op
#: stream row of the ABD baseline — scaled by a row's op count and its
#: family's relative cost.
SOAK_BUDGET = 120.0
STREAM_BUDGET = 600.0
#: Peak RSS: absolute cap per process (KiB), and the factor "flat" means.
RSS_CAP_KB = 262_144
RSS_RATIO = 2.0


class Family(NamedTuple):
    """A stream family: the ``batch_size`` its rows must record and its
    wall-clock cost relative to abd-sw (RQS evaluates quorum predicates
    per round; MW writes add a discovery round)."""

    batch_size: Optional[int]
    scale: float


FAMILIES = {
    "abd-sw": Family(1, 1.0),
    "rqs-bounded": Family(1, 4.0),
    "abd-mw": Family(1, 2.0),
    "abd-sw-batched": Family(16, 1.0),
}
NO_FAMILY = Family(None, 1.0)


def family(row: dict) -> Family:
    return FAMILIES.get(row["label"], NO_FAMILY)


COUNTERS = ("operations", "completed", "events")
TIMED = COUNTERS + ("execute_seconds", "wall_s", "ops_per_sec")
ONLINE = ("atomic", "violations", "keys_checked", "checker_mode")
SHARD = TIMED + ONLINE + (
    "shards", "protocol", "batch_size", "n_keys", "clients", "workers",
    "cpu_seconds", "capacity_ops_per_sec", "shard_rss_kb",
    "max_shard_rss_kb",
)

ATOMIC = Rule(
    "atomic", lambda r: r["atomic"] is True and r.get("violations", 0) == 0,
    "the checker found the history NOT atomic",
)
RAN = Rule(
    "positive counters", lambda r: r["operations"] > 0 and r["completed"] > 0,
    "the row ran nothing",
)
# A counted skip is a refusal: "atomic" must not hide operations the
# windowed checker never looked at.  Committed v6 rows predate the field.
NOTHING_SKIPPED = Rule(
    "overrun_unchecked == 0", lambda r: r.get("overrun_unchecked", 0) == 0,
    "the windowed checker skipped operations; 'atomic' does not cover them",
)
CHECKER_MODE = Rule(
    "checker_mode",
    lambda r: r["checker_mode"] == (
        "mw" if r.get("n_writers", 1) > 1 else "sw"
    ),
    "the checker's mode label is not the one the row's writer count "
    "demands",
)
ALL_KEYS = Rule(
    "keys_checked == n_keys", lambda r: r["keys_checked"] == r["n_keys"],
    "some register was never checked",
)
CHECKER_BOUNDED = Rule(
    "checker_max_retained <= 10000",
    lambda r: r["checker_max_retained"] <= 10_000,
    "the checker's window is not bounded",
)
ONE_PEAK_PER_SHARD = Rule(
    "one RSS peak per shard",
    lambda r: len(r["shard_rss_kb"]) == r["shards"] >= 1
    and r["max_shard_rss_kb"] == max(r["shard_rss_kb"]) <= RSS_CAP_KB,
    f"shard_rss_kb must carry one worker-measured peak per shard, each "
    f"under {RSS_CAP_KB} KiB, and max_shard_rss_kb their maximum",
)
HAS_CAPACITY = Rule(
    "capacity > 0",
    lambda r: r["capacity_ops_per_sec"] > 0 and r["workers"] >= 1,
    "non-positive capacity or worker count",
)
SHARD_RULES = (
    RAN, ATOMIC, NOTHING_SKIPPED, CHECKER_MODE, ALL_KEYS,
    ONE_PEAK_PER_SHARD, HAS_CAPACITY,
)


def exactly(*want):
    """An acceptance row named by its exact key."""
    return "/".join(str(part) for part in want), lambda key: key == want


def versus_unsharded(min_shards: int):
    """Pair a fleet row with the shards=1 row of its size."""
    return lambda key: (1, key[1]) if key[0] >= min_shards else None


CASES = Section(
    name="cases",
    key=("n_keys", "clients"),
    required=("n_keys", "clients") + TIMED,
    exact=COUNTERS,
    rules=(RAN,),
)

SOAK = Section(
    name="soak",
    key=(),
    required=("n_keys", "clients", "atomic", "keys_checked") + TIMED,
    fresh_only=("overrun_unchecked",),
    exact=COUNTERS,
    rules=(
        Rule("soak size", lambda r: r["operations"] >= 10_000,
             "the closed soak must run at least 10k operations"),
        ATOMIC, NOTHING_SKIPPED, ALL_KEYS,
    ),
    budget=lambda row: SOAK_BUDGET,
)

STREAM = Section(
    name="stream",
    key=("label", "max_ops"),
    required=TIMED + ONLINE + (
        "label", "protocol", "n_writers", "bounded_history", "batch_size",
        "max_ops", "n_keys", "clients", "checker_max_retained",
        "server_max_retained_cells", "server_gc_removed_cells",
        "peak_rss_kb",
    ),
    fresh_only=("overrun_unchecked",),
    exact=COUNTERS,
    covered=lambda row: row["max_ops"] == CI_OPS,
    rules=(
        ATOMIC, NOTHING_SKIPPED, CHECKER_MODE, ALL_KEYS, CHECKER_BOUNDED,
        Rule("family batch_size",
             lambda r: r["batch_size"] == family(r).batch_size,
             f"unknown family, or not its batch_size "
             f"(families: {sorted(FAMILIES)})"),
        Rule("bounded history GCs",
             lambda r: not r["bounded_history"] or (
                 r["server_gc_removed_cells"] > 0
                 and r["server_max_retained_cells"] <= 20_000),
             "bounded_history with 0 cells GC'd means the knob is not "
             "wired; the flat-memory claim is ~O(servers x keys x rounds) "
             "retained cells, far below 20k"),
        Rule("rss cap", lambda r: r["peak_rss_kb"] <= RSS_CAP_KB,
             f"peak RSS over {RSS_CAP_KB} KiB"),
    ),
    ratios=(
        # The machine-independent form of the batching claim: event
        # counts are deterministic, so it is strict on both sides.
        Ratio("batched events", "events",
              lambda k: ("abd-sw-batched", k[1]) if k[0] == "abd-sw" else None,
              "batch_size=16 must process >= 5x fewer simulated events "
              "than abd-sw at equal size",
              least=5.0, fresh=True),
        # ops/s is quoted on simulator-only execute_seconds; both rows of
        # the committed artifact come from one unloaded full run.
        Ratio("batched ops/s", "ops_per_sec",
              lambda k: ("abd-sw", k[1]) if k[0] == "abd-sw-batched" else None,
              "the batched family must sustain >= 5x the abd-sw ops/s",
              least=5.0),
        Ratio("sublinear memory", "peak_rss_kb",
              lambda k: (k[0], CI_OPS) if k[1] == FULL_STREAM_OPS else None,
              "10x the ops must not double a family's peak RSS",
              most=RSS_RATIO),
    ),
    # abd-mw is there for its verdict machinery, not its scale.
    accept=(
        exactly("abd-sw", FULL_STREAM_OPS),
        exactly("rqs-bounded", FULL_STREAM_OPS),
        exactly("abd-sw-batched", FULL_STREAM_OPS),
    ),
    budget=lambda row: (
        STREAM_BUDGET * family(row).scale * row["max_ops"] / FULL_STREAM_OPS
    ),
)

#: The batched abd-sw soak through the multi-process shard engine.
SHARDED = Section(
    name="sharded",
    key=("shards", "max_ops"),
    required=SHARD + ("max_ops",),
    fresh_only=("overrun_unchecked",),
    exact=COUNTERS,
    covered=lambda row: row["max_ops"] == CI_OPS,
    rules=SHARD_RULES + (
        Rule("completed == max_ops", lambda r: r["completed"] == r["max_ops"],
             "the op budget was not met exactly"),
    ),
    ratios=(
        # CPU-time based (see the bench), so not a claim about the
        # recording host's core count.
        Ratio("shard capacity", "capacity_ops_per_sec", versus_unsharded(4),
              "a >=4-shard fleet must sustain >= 3x the shards=1 capacity",
              least=3.0),
        # Each worker simulates only its key slice.
        Ratio("per-shard memory", "max_shard_rss_kb", versus_unsharded(2),
              "a shard's peak RSS must stay within 2x the unsharded row's",
              most=RSS_RATIO, fresh=True),
        Ratio("flat shard memory", "max_shard_rss_kb",
              lambda k: (k[0], CI_OPS)
              if k[0] >= 2 and k[1] == FULL_SHARDED_OPS else None,
              "100x the ops must not double a shard's peak RSS",
              most=RSS_RATIO),
    ),
    accept=(
        exactly(1, FULL_SHARDED_OPS),
        (f">=4/{FULL_SHARDED_OPS}",
         lambda key: key[0] >= 4 and key[1] == FULL_SHARDED_OPS),
    ),
    budget=lambda row: STREAM_BUDGET * row["max_ops"] / FULL_STREAM_OPS,
)

#: The same soak under a zipfian draw.  Rows are duration-bounded (see
#: the bench), so a row's budget scales with its completed count.
SHARDED_ZIPF = Section(
    name="sharded_zipf",
    key=("shards", "duration"),
    required=SHARD + ("duration", "distribution", "skew", "imbalance"),
    fresh_only=("overrun_unchecked",),
    exact=COUNTERS + ("imbalance",),
    rules=SHARD_RULES + (
        Rule("zipfian cell",
             lambda r: r["distribution"] == "zipfian" and r["skew"] > 0,
             "not a zipfian cell"),
        # max/mean completed ops per shard under the weighted LPT key
        # partition (a crc32 partition of this draw sits at ~1.8).
        Rule("1 <= imbalance <= 1.3", lambda r: 1.0 <= r["imbalance"] <= 1.3,
             "the weighted partition is not balancing the zipfian draw"),
    ),
    ratios=(
        # Lower than the uniform gate's 3x: the hot shard is the
        # critical path even when balanced to <= 1.3.
        Ratio("zipf capacity", "capacity_ops_per_sec", versus_unsharded(4),
              "a >=4-shard fleet must sustain >= 2.5x the zipfian "
              "shards=1 capacity — scaling that survives hot keys",
              least=2.5),
    ),
    budget=lambda row: STREAM_BUDGET * row["completed"] / FULL_STREAM_OPS,
)


# -- E16: strategy capacity ---------------------------------------------------

#: A predicted capacity ratio at least this large must not be
#: contradicted by the measurement.
PREDICTION_MARGIN = 1.2


def optimal_vs_uniform(rows: Rows):
    """``(optimal cell, its uniform twin)`` over the fault-free cells."""
    for (system, strategy, mix, faults, seed), cell in rows.items():
        twin = rows.get((system, "uniform", mix, faults, seed))
        if strategy == "optimal" and faults == "none" and twin is not None:
            yield cell, twin


def optimal_beats_uniform(side: str, rows: Rows) -> List[str]:
    """The E16 headline: on heterogeneous capacities the load-optimal
    strategy measures strictly more throughput than uniform somewhere."""
    if any(
        cell["system"] == "grid-hetero"
        and cell["sim_ops_per_sec"] > twin["sim_ops_per_sec"]
        for cell, twin in optimal_vs_uniform(rows)
    ):
        return []
    return [
        f"{side}: the load-optimal strategy never beats uniform on a "
        f"fault-free heterogeneous-capacity cell (the E16 acceptance result)"
    ]


def predictions_uncontradicted(side: str, rows: Rows) -> List[str]:
    """A clearly predicted advantage must not measure as a deficit."""
    return [
        f"{side}: cell (system={cell['system']}, mix={cell['mix']}) "
        f"predicts optimal/uniform capacity >= {PREDICTION_MARGIN}x but "
        f"measured {cell['sim_ops_per_sec']} < {twin['sim_ops_per_sec']} "
        f"ops/s — the prediction is contradicted"
        for cell, twin in optimal_vs_uniform(rows)
        if cell["predicted_capacity"] / twin["predicted_capacity"]
        >= PREDICTION_MARGIN
        and cell["sim_ops_per_sec"] < twin["sim_ops_per_sec"]
    ]


#: Simulated time and exact-rational LP solutions: zero noise.
QUORUM_EXACT = COUNTERS + (
    "messages", "sim_ops_per_sec", "predicted_load", "predicted_capacity",
)
QUORUM_CELLS = Section(
    name="cases",
    key=("system", "strategy", "mix", "faults", "seed"),
    required=QUORUM_EXACT + (
        "system", "strategy", "mix", "faults", "seed", "atomic",
        "read_fraction", "wall_s",
    ),
    exact=QUORUM_EXACT,
    rules=(ATOMIC, RAN),
    extras=(optimal_beats_uniform, predictions_uncontradicted),
)


# -- the RQS search: deterministic counts and a timeout ----------------------

#: ``search_rqs(ThresholdAdversary(range(1, n + 1), k))`` at the sizes
#: ``core/search.py`` quotes.  A timeout, not a speed claim: the greedy
#: classification decides a candidate on what it adds (0.2 s for B_2
#: over 12 servers on the reference box); re-checking the whole class
#: per candidate took 23 s there and blows this on any runner.
SEARCH_BUDGET = 6.0
SEARCH_FACTS = {
    "name": "search",
    "searches": [
        {"adversary": "B_1/10", "quorums": 386, "qc2": 176, "qc1": 14},
        {"adversary": "B_2/11", "quorums": 562, "qc2": 232, "qc1": 12},
        {"adversary": "B_2/12", "quorums": 920, "qc2": 299, "qc1": 13},
    ],
}
SEARCHES = Section(
    name="searches",
    key=("adversary",),
    required=("adversary", "quorums", "qc2", "qc1"),
    fresh_only=("wall_s",),
    exact=("quorums", "qc2", "qc1"),
    budget=lambda row: SEARCH_BUDGET,
)


def collect_searches() -> dict:
    """Run the searches of ``SEARCH_FACTS``, timing each."""
    import time

    from repro.core.adversary import ThresholdAdversary
    from repro.core.search import search_rqs

    rows = []
    for fact in SEARCH_FACTS["searches"]:
        k, n = map(int, fact["adversary"][2:].split("/"))
        start = time.perf_counter()
        rqs = search_rqs(ThresholdAdversary(range(1, n + 1), k))
        rows.append({
            "adversary": fact["adversary"],
            "quorums": len(rqs.quorums),
            "qc2": len(rqs.qc2),
            "qc1": len(rqs.qc1),
            "wall_s": round(time.perf_counter() - start, 3),
        })
        print(f"search_rqs({fact['adversary']}): {rows[-1]['wall_s']} s "
              f"(timeout {SEARCH_BUDGET} s)")
    return {"name": "search", "searches": rows}


ARTIFACTS = {artifact.name: artifact for artifact in (
    Artifact("workload", ("schema_version",),
             (CASES, SOAK, STREAM, SHARDED, SHARDED_ZIPF),
             "benchmarks.bench_workload"),
    Artifact("quorums", ("schema_version", "horizon"),
             (QUORUM_CELLS,), "repro.experiments.capacity"),
    Artifact("search", (), (SEARCHES,), collect_searches,
             baseline=SEARCH_FACTS),
)}


def committed(artifact: Artifact) -> dict:
    """The side a regeneration is held against."""
    if artifact.baseline is not None:
        return artifact.baseline
    return json.loads((ROOT / f"BENCH_{artifact.name}.json").read_text())


def regenerate(artifact: Artifact) -> dict:
    collect = artifact.collector
    if isinstance(collect, str):
        collect = importlib.import_module(collect).collect
    return collect()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "artifact", nargs="?", choices=sorted(ARTIFACTS),
        help="the artifact to gate (default: every one)",
    )
    parser.add_argument(
        "--fresh", metavar="PATH",
        help="a pre-generated fresh artifact (needs the artifact's name); "
             "omitted = regenerate now",
    )
    args = parser.parse_args(argv)
    if args.fresh and not args.artifact:
        parser.error("--fresh needs the name of the artifact it holds")
    # The bench packages live at the repository root, ``repro`` under src/.
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    status = 0
    for name in [args.artifact] if args.artifact else sorted(ARTIFACTS):
        artifact = ARTIFACTS[name]
        fresh = (
            json.loads(Path(args.fresh).read_text()) if args.fresh
            else regenerate(artifact)
        )
        problems = check(artifact, committed(artifact), fresh)
        rows = 0 if problems else sum(
            len(rows_of(section, fresh)) for section in artifact.sections
        )
        held_to = (
            f"BENCH_{name}.json" if artifact.baseline is None
            else "the facts in tools/check_bench.py"
        )
        status |= finish(
            problems,
            f"ok: {name}: {rows} fresh rows exact against {held_to}; "
            f"every invariant, ratio gate, acceptance row and budget holds",
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
