"""Architecture invariants held by scanning sources.

Invariant 1 (ROADMAP, docs/architecture.md): every execution goes
``ScenarioSpec → run → RunResult``, so exactly one module outside the
simulator package wires a deployment — ``repro.scenarios.adapters``,
whose ``ProtocolAdapter.__init__`` builds the simulator/network/trace
triple for every protocol.  Anything else constructing a ``Simulator``
or a ``Network`` is a second way to run an execution.

A streamed run reports itself once (docs/architecture.md, "Sharded soak
engine"): shard outcomes come home as the futures of the worker pool —
no second transport — and a result is asked the same questions whatever
executed it (``RunResult`` answers as a fleet of one), so nothing
outside ``scenarios/result.py`` and ``scenarios/sharding.py`` looks at
which class it was handed.

Speed is measured in one place (ROADMAP north-star aim 1: ``perf/`` for
wall-clock, a committed ``BENCH_*.json`` row with a
``tools/check_bench.py`` rule for same-run ratios).  A test that takes
the pytest benchmark plugin's fixture times something into a number
stored nowhere — a third timing system — so nothing asks for it.

The broadcast is the transport's primitive (docs/architecture.md, "The
message path"): ``send_all`` queues one entry per delivery instant, a
loop of ``send`` one per destination.  The only loop left is the
proposer's interleaved ``Sync`` / ``DecisionPull`` (two payloads per
target, order-sensitive).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIRING = re.compile(r"\b(?:Simulator|Network)\(")
SHARED_MEMORY = re.compile(r"\bshared_memory\b")
SHAPE_PROBE = re.compile(
    r"""getattr\(\s*\w+,\s*["']n_shards["']"""
    r"""|isinstance\([^()]*\bShardedRunResult\b"""
)
BENCHMARK_PLUGIN = re.compile(
    r"pytest[-_]benchmark|def \w+\([^)]*\bbenchmark\b"
)
SEND_LOOP = re.compile(r"^ *for .* in .*:\s*\n *self\.send\(", re.MULTILINE)
EVERYWHERE = ("src/repro", "benchmarks", "examples")


def _sites(pattern, *directories):
    return sorted(
        str(path.relative_to(ROOT))
        for directory in directories
        for path in (ROOT / directory).rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )


def test_only_the_adapters_wire_a_simulator():
    library = [
        site for site in _sites(WIRING, "src/repro")
        if not site.startswith("src/repro/sim/")
    ]
    assert library == ["src/repro/scenarios/adapters.py"]


def test_benchmarks_and_examples_wire_nothing():
    assert _sites(WIRING, "benchmarks", "examples") == []


def test_no_second_way_home_from_a_worker():
    assert _sites(SHARED_MEMORY, *EVERYWHERE) == []


def test_only_the_result_modules_look_at_a_results_shape():
    assert set(_sites(SHAPE_PROBE, *EVERYWHERE)) <= {
        "src/repro/scenarios/result.py", "src/repro/scenarios/sharding.py",
    }


def test_nothing_asks_for_the_benchmark_plugin():
    assert _sites(BENCHMARK_PLUGIN, "src", "benchmarks", "tests") == []
    assert not BENCHMARK_PLUGIN.search((ROOT / "pyproject.toml").read_text())


def test_a_fan_out_is_a_send_all():
    assert _sites(SEND_LOOP, "src/repro") == ["src/repro/consensus/proposer.py"]
    proposer = (ROOT / "src/repro/consensus/proposer.py").read_text()
    assert len(SEND_LOOP.findall(proposer)) == 1
