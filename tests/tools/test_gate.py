"""The gate convicts a named table of mutants — no regeneration.

``tools/check_bench.py`` describes the committed artifacts as tables and
``tools/_gate.py`` interprets them.  Here the committed artifact goes in
on both sides (the fresh side with the one field only fresh rows carry),
which must pass; then each mutant doctors one side and the gate must
fail *with a message naming the rule the mutant broke*.  The last three
are the two vacuous passes and the hidden skip this gate was written to
refuse: the parent's scripts exit 0 on all three.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_bench  # noqa: E402
from _gate import check  # noqa: E402

CI, FULL, FULL_SHARDED = 100_000, 1_000_000, 10_000_000


def committed(name):
    return copy.deepcopy(check_bench.committed(check_bench.ARTIFACTS[name]))


def regenerated(payload):
    """A regeneration that reproduces ``payload`` exactly."""
    fresh = copy.deepcopy(payload)
    for row in fresh.get("searches", ()):
        row["wall_s"] = 0.2
    for section in ("stream", "sharded", "sharded_zipf"):
        for row in fresh.get(section, ()):
            row["overrun_unchecked"] = 0
    if "soak" in fresh:
        fresh["soak"]["overrun_unchecked"] = 0
    return fresh


def pick(payload, section, **where):
    [row] = [
        row for row in payload[section]
        if all(row[field] == value for field, value in where.items())
    ]
    return row


def drop(payload, section, unwanted):
    payload[section] = [r for r in payload[section] if not unwanted(r)]


# -- the mutants: (base, fresh) doctored in place -----------------------------

def events_off_by_one(base, fresh):
    pick(fresh, "stream", label="abd-sw", max_ops=CI)["events"] += 1


def non_atomic_row(base, fresh):
    pick(fresh, "stream", label="abd-mw", max_ops=CI).update(
        atomic=False, violations=3
    )


def mw_checker_on_one_writer(base, fresh):
    pick(fresh, "stream", label="abd-sw", max_ops=CI)["checker_mode"] = "mw"


def bounded_row_never_gcs(base, fresh):
    row = pick(fresh, "stream", label="rqs-bounded", max_ops=CI)
    row["server_gc_removed_cells"] = 0


def batched_events_ratio_4_9(base, fresh):
    plain = pick(fresh, "stream", label="abd-sw", max_ops=CI)
    batched = pick(fresh, "stream", label="abd-sw-batched", max_ops=CI)
    batched["events"] = int(plain["events"] / 4.9)


def batched_ops_ratio_4_9(base, fresh):
    plain = pick(base, "stream", label="abd-sw", max_ops=FULL)
    batched = pick(base, "stream", label="abd-sw-batched", max_ops=FULL)
    batched["ops_per_sec"] = round(4.9 * plain["ops_per_sec"], 1)


def committed_capacity_ratio_2_9(base, fresh):
    reference = pick(base, "sharded", shards=1, max_ops=FULL_SHARDED)
    fleet = pick(base, "sharded", shards=4, max_ops=FULL_SHARDED)
    fleet["capacity_ops_per_sec"] = round(
        2.9 * reference["capacity_ops_per_sec"], 1
    )


def committed_zipf_capacity_ratio_2_4(base, fresh):
    reference = pick(base, "sharded_zipf", shards=1)
    fleet = pick(base, "sharded_zipf", shards=4)
    fleet["capacity_ops_per_sec"] = round(
        2.4 * reference["capacity_ops_per_sec"], 1
    )


def imbalance_1_31(base, fresh):
    for side in (base, fresh):  # exact field: doctor both, isolate the rule
        pick(side, "sharded_zipf", shards=4)["imbalance"] = 1.31


def committed_million_op_rss_2_1(base, fresh):
    small = pick(base, "stream", label="abd-sw", max_ops=CI)
    big = pick(base, "stream", label="abd-sw", max_ops=FULL)
    big["peak_rss_kb"] = int(2.1 * small["peak_rss_kb"]) + 1


def missing_1e7_acceptance_row(base, fresh):
    for side in (base, fresh):
        drop(side, "sharded", lambda r: (
            r["shards"], r["max_ops"]) == (4, FULL_SHARDED))


def no_unsharded_reference(base, fresh):
    for side in (base, fresh):
        drop(side, "sharded", lambda r: r["shards"] == 1)


def rss_list_shorter_than_shards(base, fresh):
    pick(fresh, "sharded", shards=4, max_ops=CI)["shard_rss_kb"].pop()


def row_over_wall_budget(base, fresh):
    # 100 084 completed ops -> 600 s x 0.100084 = 60.05 s.
    pick(fresh, "sharded_zipf", shards=1)["wall_s"] = 61.0


def soak_over_wall_budget(base, fresh):
    fresh["soak"]["wall_s"] = 120.5


def quorums_non_atomic_cell(base, fresh):
    fresh["cases"][0]["atomic"] = False


def quorums_throughput_changed(base, fresh):
    fresh["cases"][7]["sim_ops_per_sec"] += 0.011111


def hetero_optimal(payload):
    return [
        (cell, pick(payload, "cases", system="grid-hetero",
                    strategy="uniform", mix=cell["mix"], faults="none"))
        for cell in payload["cases"]
        if (cell["system"], cell["strategy"], cell["faults"])
        == ("grid-hetero", "optimal", "none")
    ]


def optimal_never_beats_uniform(base, fresh):
    for side in (base, fresh):
        for cell, twin in hetero_optimal(side):
            cell["sim_ops_per_sec"] = twin["sim_ops_per_sec"]


def contradicted_prediction(base, fresh):
    for side in (base, fresh):
        # Predicted 5.14 : 2.57 = 2.0x >= 1.2x, doctored to measure less.
        cell, twin = hetero_optimal(side)[-1]
        cell["sim_ops_per_sec"] = twin["sim_ops_per_sec"] - 0.5


def search_relapses_to_the_full_check(base, fresh):
    # What B_2 over 12 servers took when every candidate re-checked the
    # whole class it would join.
    pick(fresh, "searches", adversary="B_2/12")["wall_s"] = 23.0


def search_admits_one_more_class2_quorum(base, fresh):
    pick(fresh, "searches", adversary="B_2/11")["qc2"] += 1


# The three this gate was written for (the parent exits 0 on each).

def rqs_bounded_family_not_regenerated(base, fresh):
    drop(fresh, "stream", lambda r: r["label"] == "rqs-bounded")


def sharded_rows_rekeyed(base, fresh):
    drop(fresh, "sharded", lambda r: r["max_ops"] != CI)
    for row in fresh["sharded"]:
        row.update(max_ops=12345, operations=12345, completed=12345,
                   wall_s=1.0)


def counted_skip(base, fresh):
    pick(fresh, "sharded", shards=4, max_ops=CI)["overrun_unchecked"] = 1


MUTANTS = [
    ("workload", events_off_by_one,
     r"stream row abd-sw/100000: events changed 1666238 -> 1666239"),
    ("workload", non_atomic_row,
     r"fresh: stream row abd-mw/100000 breaks 'atomic'"),
    ("workload", mw_checker_on_one_writer,
     r"fresh: stream row abd-sw/100000 breaks 'checker_mode'"),
    ("workload", bounded_row_never_gcs,
     r"fresh: stream row rqs-bounded/100000 breaks 'bounded history GCs'"),
    ("workload", batched_events_ratio_4_9,
     r"fresh: stream batched events: row abd-sw/100000"),
    ("workload", batched_ops_ratio_4_9,
     r"baseline: stream batched ops/s: row abd-sw-batched/1000000"),
    ("workload", committed_capacity_ratio_2_9,
     r"baseline: sharded shard capacity: row 4/10000000"),
    ("workload", committed_zipf_capacity_ratio_2_4,
     r"baseline: sharded_zipf zipf capacity: row 4/100000.0"),
    ("workload", imbalance_1_31,
     r"sharded_zipf row 4/100000.0 breaks '1 <= imbalance <= 1.3'"),
    ("workload", committed_million_op_rss_2_1,
     r"baseline: stream sublinear memory: row abd-sw/1000000"),
    ("workload", missing_1e7_acceptance_row,
     r"baseline: sharded lacks the acceptance row >=4/10000000"),
    ("workload", no_unsharded_reference,
     r"baseline: sharded shard capacity: no pair of rows to compare "
     r"— the gate cannot run"),
    ("workload", rss_list_shorter_than_shards,
     r"fresh: sharded row 4/100000 breaks 'one RSS peak per shard'"),
    ("workload", row_over_wall_budget,
     r"fresh sharded_zipf row 1/100000.0 blew its wall budget: 61.0s > 60.1s"),
    ("workload", soak_over_wall_budget,
     r"fresh soak row - blew its wall budget: 120.5s > 120.0s"),
    ("quorums", quorums_non_atomic_cell,
     r"fresh: cases row .* breaks 'atomic'"),
    ("quorums", quorums_throughput_changed, r"sim_ops_per_sec changed"),
    ("quorums", optimal_never_beats_uniform,
     r"the load-optimal strategy never beats uniform"),
    ("quorums", contradicted_prediction, r"the prediction is contradicted"),
    ("search", search_relapses_to_the_full_check,
     r"fresh searches row B_2/12 blew its wall budget: 23.0s > 6.0s"),
    ("search", search_admits_one_more_class2_quorum,
     r"searches row B_2/11: qc2 changed 232 -> 233"),
    ("workload", rqs_bounded_family_not_regenerated,
     r"stream row rqs-bounded/100000 was not regenerated"),
    ("workload", sharded_rows_rekeyed,
     r"fresh sharded row 1/12345 has no committed counterpart"),
    ("workload", counted_skip,
     r"fresh: sharded row 4/100000 breaks 'overrun_unchecked == 0'"),
]


def doctored(name, mutate):
    base = committed(name)
    fresh = regenerated(base)
    mutate(base, fresh)
    return base, fresh


@pytest.mark.parametrize("name", sorted(check_bench.ARTIFACTS))
def test_the_committed_artifact_passes_against_itself(name):
    base = committed(name)
    assert check(check_bench.ARTIFACTS[name], base, regenerated(base)) == []


@pytest.mark.parametrize(
    "name, mutate, message", MUTANTS, ids=[m[1].__name__ for m in MUTANTS]
)
def test_mutant_is_convicted_by_its_rule(name, mutate, message):
    problems = check(check_bench.ARTIFACTS[name], *doctored(name, mutate))
    assert any(re.search(message, problem) for problem in problems), problems


def test_a_fresh_row_must_carry_the_skip_count():
    """Committed v6 rows predate ``overrun_unchecked``; a regeneration
    that does not report it is refused, not assumed clean."""
    base = committed("workload")
    fresh = regenerated(base)
    del fresh["soak"]["overrun_unchecked"]
    del pick(fresh, "stream", label="abd-mw", max_ops=CI)["overrun_unchecked"]
    problems = check(check_bench.ARTIFACTS["workload"], base, fresh)
    assert problems == [
        "fresh: soak row - lacks ['overrun_unchecked']",
        "fresh: stream row abd-mw/100000 lacks ['overrun_unchecked']",
    ]


def test_a_duplicated_row_is_refused():
    base = committed("workload")
    fresh = regenerated(base)
    fresh["sharded"].append(dict(fresh["sharded"][0]))
    problems = check(check_bench.ARTIFACTS["workload"], base, fresh)
    assert problems == ["fresh: sharded row 1/100000 appears twice"]


def test_command_line_takes_an_artifact_name_and_a_fresh_file(
    tmp_path, capsys
):
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(regenerated(committed("workload"))))
    assert check_bench.main(["workload", "--fresh", str(clean)]) == 0
    assert capsys.readouterr().out.startswith("ok: workload: 22 fresh rows")
    # The two vacuous passes, end to end: both exited 0 at the parent.
    for mutate in (rqs_bounded_family_not_regenerated, sharded_rows_rekeyed):
        path = tmp_path / f"{mutate.__name__}.json"
        path.write_text(json.dumps(doctored("workload", mutate)[1]))
        assert check_bench.main(["workload", "--fresh", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
    with pytest.raises(SystemExit):  # whose rows would --fresh hold?
        check_bench.main(["--fresh", str(clean)])
