"""The workload bench: ops/sec and memory of the keyed register space.

``BENCH_workload.json`` is five sections of labelled spec literals
(:data:`SECTIONS`), every row measured by the one :func:`measure`:

* **cases** — an ``n_keys × clients`` grid of seeded closed-loop
  :class:`RandomMix` cells over ABD (the cheapest atomic protocol, so the
  bench tracks the workload engine rather than RQS predicate evaluation).
* **soak** — the closed-loop 10k-operation 16-register mix at
  ``TraceLevel.METRICS``, verdict from the windowed online checker.
* **stream** — horizon-free open-loop soaks (``max_ops`` stopping rule)
  in labelled families: the ABD single-writer baseline, the paper's RQS
  protocol with ``bounded_history`` (servers GC superseded history cells
  — rows carry the retained/GC'd counters), multi-writer ABD (its
  verdict labelled ``"mw"``), and the ``batch_size=16`` hot path.
* **sharded** — the batched soak through the multi-process shard engine
  up to 1e7 ops.  ``capacity_ops_per_sec`` is the sum over shards of
  ``completed / cpu_seconds`` — CPU time is immune to timesharing, so
  the figure is about the engine, not the recording host's core count.
* **sharded_zipf** — the same soak under a zipfian draw (``skew=1.2``,
  64 keys flatten the head enough that a weighted partition *can*
  balance it), **duration-bounded**: an op budget is split evenly across
  shards and would pin ``imbalance`` (max/mean completed ops per shard)
  at 1.0 by fiat.

Every row runs in a fresh subprocess (``--probe KEY``) so the monotone
``ru_maxrss`` is one run's peak; a shard's peak is measured by its own
worker.  Throughput is quoted on ``execute_seconds`` (the
adapter's execute loop); ``wall_s`` is the whole ``run()``.  Counts and
``imbalance`` are exact across machines; what may be claimed from the
rest is written down in ``tools/check_bench.py``.

``python -m benchmarks.bench_workload`` rewrites the artifact at the
sizes CI regenerates; ``--full-stream`` also records the 1e6/1e7
acceptance rows.  Under pytest: the determinism smokes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import repro
from repro.experiments import keyed_mix_spec
from repro.scenarios import ScenarioSpec, run
from repro.scenarios.result import soak_row

SCHEMA_VERSION = 6
ROOT = Path(__file__).resolve().parent.parent

#: The size CI regenerates; larger rows need ``--full-stream``.
CI_OPS = 100_000
FULL_OPS = 1_000_000

CELL = dict(seed=5, trace_level="metrics")
#: The mix every soak draws from: 16 registers, 8 reader clients.
SOAK = dict(writes=4000, reads=6000, readers=8, **CELL)
BATCHED = dict(batch_size=16, **SOAK)
ZIPF = dict(horizon=10_000.0, skew=1.2, duration=100_000.0, **BATCHED)


def stream(label: str, protocol: str, sizes: tuple, **mix) -> list:
    return [
        (f"stream/{label}/{size}", {"label": label, "max_ops": size},
         keyed_mix_spec(protocol, 16, max_ops=size, **SOAK, **mix))
        for size in sizes
    ]


#: section -> [(probe key, the row's own labels, spec)], in artifact order.
SECTIONS = {
    "cases": [
        (f"cases/{n_keys}x{clients}", {},
         keyed_mix_spec("abd", n_keys, writes=300, reads=700,
                        readers=clients, **CELL))
        for n_keys in (1, 4, 16) for clients in (2, 8)
    ],
    "soak": [("soak", {}, keyed_mix_spec("abd", 16, **SOAK))],
    "stream": [
        *stream("abd-sw", "abd", (CI_OPS, FULL_OPS)),
        *stream("rqs-bounded", "rqs-storage", (CI_OPS, FULL_OPS),
                params={"bounded_history": True}),
        # Its verdict machinery, not its scale, is the point.
        *stream("abd-mw", "abd", (CI_OPS,), n_writers=4),
        *stream("abd-sw-batched", "abd", (CI_OPS, FULL_OPS), batch_size=16),
    ],
    # shards=1 is directly the abd-sw-batched workload.
    "sharded": [
        (f"sharded/{shards}x{size}", {"shards": shards, "max_ops": size},
         keyed_mix_spec("abd", 16, max_ops=size, **BATCHED)
         .with_(shards=shards))
        for size in (CI_OPS, FULL_OPS, 10 * FULL_OPS) for shards in (1, 4)
    ],
    "sharded_zipf": [
        (f"sharded_zipf/{shards}",
         {"shards": shards, "duration": ZIPF["duration"]},
         keyed_mix_spec("abd", 64, **ZIPF).with_(shards=shards))
        for shards in (1, 4)
    ],
}
ROWS = {
    key: (section, labels, spec)
    for section, rows in SECTIONS.items() for key, labels, spec in rows
}

WHO = ("n_keys", "clients")
TIMED = ("operations", "completed", "events", "execute_seconds", "wall_s",
         "ops_per_sec")
SHARD_TIMED = TIMED[:4] + ("cpu_seconds",) + TIMED[4:] + (
    "capacity_ops_per_sec",)
ONLINE = ("atomic", "violations", "keys_checked", "checker_max_retained",
          "checker_mode", "overrun_unchecked")
SHARD_RSS = ("shard_rss_kb", "max_shard_rss_kb")
#: The schema: which of :func:`measure`'s figures a section's rows carry.
FIELDS = {
    "cases": WHO + TIMED,
    "soak": WHO + TIMED + ("atomic", "keys_checked", "overrun_unchecked"),
    "stream": (
        "label", "protocol", "n_writers", "bounded_history", "batch_size",
        "max_ops") + WHO + TIMED + ONLINE + (
        "server_max_retained_cells", "server_gc_removed_cells",
        "peak_rss_kb"),
    "sharded": (
        "shards", "max_ops", "protocol", "batch_size") + WHO + (
        "workers",) + SHARD_TIMED + ONLINE + SHARD_RSS,
    "sharded_zipf": (
        "shards", "duration", "protocol", "distribution", "skew",
        "batch_size") + WHO + ("workers",) + SHARD_TIMED + (
        "imbalance",) + ONLINE + SHARD_RSS,
}


def measure(section: str, labels: dict, spec: ScenarioSpec) -> dict:
    """Run ``spec`` in *this* process and return its ``section`` row:
    the labels the spec literal carries plus the one soak row
    (:func:`repro.scenarios.result.soak_row`), projected onto
    ``FIELDS[section]``.

    Grid cases quote the best of three executions (the execution is
    deterministic; repeats only shave warm-up noise).  An unsharded
    result answers as a fleet of one — this process's peak RSS and its
    own CPU time as the one "shard" — so a fleet row and its shards=1
    reference carry the same kind of number.
    """
    wall = float("inf")
    runs = []
    for _ in range(3 if section == "cases" else 1):
        started = perf_counter()
        runs.append(run(spec))
        wall = min(wall, perf_counter() - started)
    row = soak_row(min(runs, key=lambda result: result.execute_seconds))
    host, mix = row.pop("host"), spec.workload[0]
    figures = {
        **labels,
        "protocol": spec.protocol,
        "n_writers": spec.n_writers,
        "n_keys": spec.n_keys,
        "clients": spec.readers,
        "batch_size": mix.batch_size,
        "distribution": mix.distribution,
        "skew": mix.skew,
        **row,
        **host,
        "wall_s": round(wall, 4),
        "peak_rss_kb": host["shard_rss_kb"][0],
    }
    return {field: figures[field] for field in FIELDS[section]}


def probe(key: str) -> dict:
    """One row, measured in a fresh subprocess (so the monotone
    ``ru_maxrss`` is exactly one run's peak)."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-m", "benchmarks.bench_workload", "--probe", key],
        capture_output=True, text=True, cwd=ROOT, env=env, check=True,
    )
    return json.loads(child.stdout)


def collect(full_stream: bool = False) -> dict:
    """Measure every section and assemble the artifact payload — the
    rows CI regenerates, or with ``full_stream`` every recorded size."""
    payload = {"name": "workload", "schema_version": SCHEMA_VERSION}
    for section, rows in SECTIONS.items():
        payload[section] = [
            probe(key) for key, labels, _ in rows
            if full_stream or labels.get("max_ops", 0) <= CI_OPS
        ]
    (payload["soak"],) = payload["soak"]
    return payload


# -- pytest smoke (determinism only; the gate is tools/check_bench.py) --------

def small(key: str, **changes) -> ScenarioSpec:
    """A table spec cut down to smoke size."""
    return ROWS[key][2].with_(**changes)


def test_the_tables_emit_the_committed_rows_field_for_field():
    committed = json.loads((ROOT / "BENCH_workload.json").read_text())
    committed["soak"] = [committed["soak"]]
    for section, rows in SECTIONS.items():
        extra = set() if section == "cases" else {"overrun_unchecked"}
        for (_, labels, spec), row in zip(
            rows, committed[section], strict=True
        ):
            mix = spec.workload[0]
            said = {
                **labels, "shards": spec.shards, "max_ops": spec.max_ops,
                "duration": spec.duration, "protocol": spec.protocol,
                "n_writers": spec.n_writers, "n_keys": spec.n_keys,
                "clients": spec.readers, "batch_size": mix.batch_size,
                "distribution": mix.distribution, "skew": mix.skew,
            }
            assert {f: v for f, v in said.items() if f in row} == {
                f: row[f] for f in said if f in row}, labels
            assert set(FIELDS[section]) == set(row) | extra, section


def test_measure_emits_exactly_the_section_fields():
    labels = {"label": "rqs-bounded", "max_ops": 500}
    spec = small("stream/rqs-bounded/100000", max_ops=500)
    row = measure("stream", labels, spec)
    assert tuple(row) == FIELDS["stream"]
    assert (row["completed"], row["atomic"], row["overrun_unchecked"]) == (
        500, True, 0)
    assert row["bounded_history"] and row["server_gc_removed_cells"] > 0
    fleet = measure("sharded_zipf", {"shards": 4, "duration": 2000.0},
                    small("sharded_zipf/4", duration=2000.0))
    assert tuple(fleet) == FIELDS["sharded_zipf"]
    assert len(fleet["shard_rss_kb"]) == fleet["workers"] == 4


def test_workload_cells_are_deterministic():
    spec = keyed_mix_spec("abd", 4, writes=40, reads=60, readers=2, **CELL)
    first, second = measure("cases", {}, spec), measure("cases", {}, spec)
    for field in ("operations", "completed", "events"):
        assert first[field] == second[field] > 0


def test_soak_history_is_online_checked_per_key():
    spec = keyed_mix_spec("abd", 8, writes=200, reads=300, readers=4, **CELL)
    online = run(spec).online
    assert online is not None and online.atomic
    assert len(online.keys) == 8
    assert online.checked_writes + online.checked_reads == 500


def test_stream_probe_is_deterministic_and_bounded():
    first = run(small("stream/abd-sw/100000", max_ops=2000))
    second = run(small("stream/abd-sw/100000", max_ops=2000))
    assert first.ops_begun() == second.ops_begun() == 2000
    assert first.events_processed == second.events_processed
    assert first.online is not None and first.online.atomic
    # Bounded retained checker state: orders of magnitude below op count.
    assert first.online.max_retained < 100


def test_rqs_bounded_stream_family_keeps_server_memory_flat():
    result = run(small("stream/rqs-bounded/100000", max_ops=2000))
    assert result.online is not None and result.online.atomic
    history = result.server_history
    assert history["bounded_history"] is True
    assert history["gc_removed_cells"] > 0
    # O(servers x keys) cells, not O(writes).
    assert history["max_retained_cells"] < 2_000


def test_batched_stream_family_is_lean_and_equivalent():
    plain = run(small("stream/abd-sw/100000", max_ops=4000))
    batched = run(small("stream/abd-sw-batched/100000", max_ops=4000))
    assert batched.ops_begun() == plain.ops_begun() == 4000
    assert batched.online is not None and batched.online.atomic
    # The point of batching: far fewer simulated events per op — the
    # deterministic form of the ratio tools/check_bench.py gates.
    assert batched.events_processed * 5 <= plain.events_processed


def test_sharded_rows_match_the_unsharded_reference():
    plain = run(small("sharded/1x100000", max_ops=2000))
    sharded = run(small("sharded/4x100000", max_ops=2000))
    assert sharded.ops_begun() == plain.ops_begun() == 2000
    assert sharded.online is not None and sharded.online.atomic
    assert sharded.online.keys == plain.online.keys
    assert sharded.online.mode == "sw"
    assert len(sharded.shard_rss_kb) == 4
    # Deterministic re-run: counters are exact.
    again = run(small("sharded/4x100000", max_ops=2000))
    assert again.ops_begun() == sharded.ops_begun()
    assert again.events_processed == sharded.events_processed


def test_sharded_zipf_rows_balance_the_hot_keys():
    plain = run(small("sharded_zipf/1", duration=3000.0))
    sharded = run(small("sharded_zipf/4", duration=3000.0))
    assert plain.online is not None and plain.online.atomic
    assert sharded.online is not None and sharded.online.atomic
    # The weighted LPT partition holds the gate's balance budget even
    # on a small duration slice of the same zipfian draw.
    assert sharded.imbalance <= 1.3
    # Deterministic re-run: duration-bounded counters are exact.
    again = run(small("sharded_zipf/4", duration=3000.0))
    assert again.ops_begun() == sharded.ops_begun()
    assert again.events_processed == sharded.events_processed
    assert again.imbalance == sharded.imbalance


def test_mw_stream_family_uses_the_stamp_ordered_checker():
    online = run(small("stream/abd-mw/100000", max_ops=2000)).online
    assert online is not None and online.atomic
    assert online.mode == "mw"
    assert online.checked_writes + online.checked_reads == 2000
    assert online.max_retained < 200


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--probe", metavar="KEY", choices=sorted(ROWS),
        help="internal: measure one row in this process and print it as "
             "JSON (how the bench isolates a row's peak RSS)",
    )
    parser.add_argument(
        "--full-stream", action="store_true",
        help="also record the 1e6/1e7-op acceptance rows (slow; how the "
             "committed artifact is made)",
    )
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(measure(*ROWS[args.probe])))
        sys.exit(0)
    path = ROOT / "BENCH_workload.json"
    path.write_text(json.dumps(collect(args.full_stream), indent=2) + "\n")
    print(f"wrote {path}")
