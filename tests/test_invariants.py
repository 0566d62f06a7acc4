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
target, order-sensitive).  The network hands a message straight to the
receiver's ``on_message`` (no ``Process.receive``) as its sender and
payload — every handler is ``on_message(self, src, payload)`` — and a
wake pass visits only the signalled waiters (no park-order list to
sweep).

A wire payload — every frozen dataclass under ``storage/`` and every
dataclass in ``consensus/messages.py`` — is built the way one message is
(docs/architecture.md, "Wire payloads"): ``@wire_payload`` on top of
``@dataclass(frozen=True, slots=True)``, and otherwise the dataclass's
own — frozen, with the ``==``, ``hash``, ``repr``, ``fields``,
``replace`` and pickling of a plain frozen twin.

A register history has one checker (docs/architecture.md, "Streaming
pipeline & online checking"): the stamp-ordered ``OnlineChecker``,
live on streamed runs and replayed over the records of FULL runs.  The
SWMR-rule, Wing–Gong and regularity checkers it replaced are test
oracles only (``tests/analysis/test_register_checker_oracle.py``):
their modules do not import, ``RunResult`` carries no second register
verdict, and nothing shipped imports from ``tests`` or names one.

An exhibit is its grid (ROADMAP invariant 2, docs/architecture.md "How
to add a sweep / experiment"): an experiment module declares a
``SweepSpec`` and its hooks, and its claim is a test on the grid's
cells.  It keeps no second representation of them — no dataclass — and
runs no grid to fill one: only ``capacity.collect`` (the
``BENCH_quorums.json`` payload) and the ``__main__`` tables call
``run_grid``.

The adversary is written once (ROADMAP invariant 1): the network
matches on a ``FaultPlan``'s own ``Hold`` / ``Drop`` / ``Delay``
literals — no second rule type, no factory converting them, no rule
added after construction — and a ``ByzantineRole`` is a process and
the factory that builds it (no behaviour names, no untyped params).  A
count waits on an ``AckSet`` and a deadline on ``Simulator.timer_at``:
``repro.sim`` exports no ``Counter`` and no ``Sleep`` effect.

The differential method is written once (ROADMAP invariant 8): every
``test_*_oracle.py`` drives its reference through ``tests/differential.py``
— where a mutant is killed by a ``Divergence``, never by any
``AssertionError`` — and only ``tests/counting.py`` installs a profile
hook for the cost pins.

A completion costs a wave, not an op (docs/architecture.md, "What one
wave costs"): records enter and leave a ``Trace`` through one
``begin`` and one ``complete``, each taking a wave, and the register
checker's rules are fed only by its one ``on_begin`` / ``on_complete``
pair — no single-record method beside them.
"""

import ast
import dataclasses
import importlib
import inspect
import pickle
import re
from pathlib import Path

import pytest

from repro.sim.wire import wire_payload

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
DATACLASS = re.compile(r"^((?:@.*\n)*)@dataclass\((.*)\)\nclass (\w+)", re.MULTILINE)
PAYLOAD_FILES = sorted(
    [*(ROOT / "src/repro/storage").glob("*.py"),
     ROOT / "src/repro/consensus/messages.py"]
)
EVERYWHERE = ("src/repro", "benchmarks", "examples")
ORACLE_USE = re.compile(
    r"^\s*(?:from|import)\s+tests\b|\bReference[A-Z]\w*"
    r"|\b(?:check_swmr_atomicity|check_swmr_regularity|is_linearizable)\b",
    re.MULTILINE,
)
EXPERIMENTS = sorted((ROOT / "src/repro/experiments").glob("*.py"))
PROFILE_HOOK = re.compile(r"\bsys\.setprofile\(")
HARNESS = re.compile(
    r"^(?:from tests\.differential import|import tests\.differential)",
    re.MULTILINE,
)
ANY_ASSERTION_KILLS = re.compile(r"pytest\.raises\(\s*\(?\s*AssertionError\b")
RETIRED_CHECKERS = (
    "repro.analysis.atomicity",
    "repro.analysis.linearizability",
    "repro.analysis.regularity",
)


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


@pytest.mark.parametrize("module", RETIRED_CHECKERS)
def test_a_retired_register_checker_does_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_a_run_has_one_register_verdict():
    from repro.scenarios import RunResult

    for retired in ("linearizable", "atomicity_by_key"):
        assert not hasattr(RunResult, retired), retired


def test_nothing_shipped_runs_a_test_oracle():
    assert _sites(ORACLE_USE, *EVERYWHERE) == []


def _grid_runs(node, function=None):
    """The functions that call ``run_grid`` under ``node`` (``None`` at
    module level), outside ``if __name__ == "__main__":`` blocks."""
    if isinstance(node, ast.If) and (
        ast.unparse(node.test) == "__name__ == '__main__'"
    ):
        return []
    if isinstance(node, ast.FunctionDef):
        function = node.name
    found = []
    if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
        "run_grid"
    ):
        found.append(function)
    for child in ast.iter_child_nodes(node):
        found += _grid_runs(child, function)
    return found


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda path: path.stem)
def test_an_exhibit_is_its_grid(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert "dataclasses" not in imported  # no dataclass can be declared
    expected = ["collect"] if path.name == "capacity.py" else []
    assert _grid_runs(tree) == expected


def test_a_message_goes_straight_to_its_handler():
    """No ``Process.receive`` hop between the network and
    ``on_message``, every handler takes the delivery's sender and
    payload, and no park-order list for a wake pass to sweep."""
    from repro.sim.process import Process
    from repro.sim.simulator import Simulator

    assert not hasattr(Process, "receive")
    assert not hasattr(Simulator(), "_park_order")
    handlers = [
        (str(path.relative_to(ROOT)), node.lineno,
         [arg.arg for arg in node.args.args])
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "on_message"
    ]
    assert len(handlers) >= 16
    assert [h for h in handlers if h[2] != ["self", "src", "payload"]] == []


def test_the_fault_plans_rules_are_the_networks():
    import repro.scenarios
    from repro.sim import network

    for retired in ("Rule", "hold_rule", "delay_rule", "drop_rule"):
        assert not hasattr(network, retired), retired
    assert not hasattr(network.Network, "add_rule")
    for name in ("Hold", "Drop", "Delay"):
        assert getattr(repro.scenarios, name) is getattr(network, name)


def test_a_byzantine_role_is_a_process_factory():
    from repro.scenarios import ByzantineRole

    assert [field.name for field in dataclasses.fields(ByzantineRole)] == [
        "process", "factory", "role",
    ]


def test_one_count_primitive_and_one_deadline():
    import repro.sim

    for retired in ("Sleep", "Counter"):
        assert not hasattr(repro.sim, retired), retired
        assert retired not in repro.sim.__all__


def _functions_naming(path, names):
    """The functions of ``path`` that mention any of ``names`` (as an
    attribute or a bare name)."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return sorted(
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(
            getattr(node, "attr", getattr(node, "id", None)) in names
            for node in ast.walk(function)
        )
    )


def test_a_wave_has_one_way_in_and_one_way_out():
    from repro.analysis.streaming import OnlineChecker
    from repro.sim.trace import Trace

    assert list(inspect.signature(Trace.begin).parameters) == [
        "self", "kind", "process", "time", "elems",
    ]
    assert list(inspect.signature(Trace.complete).parameters) == [
        "self", "records", "time", "results", "rounds",
    ]
    assert _functions_naming(
        "src/repro/sim/trace.py", {"_on_begin", "_on_complete"}
    ) == ["__init__", "begin", "complete", "subscribe"]
    assert [name for name in vars(OnlineChecker) if "begin" in name] == [
        "on_begin",
    ]
    assert _functions_naming(
        "src/repro/analysis/streaming.py",
        {"_complete_write", "_complete_read"},
    ) == ["on_complete"]


def test_a_fan_out_is_a_send_all():
    assert _sites(SEND_LOOP, "src/repro") == ["src/repro/consensus/proposer.py"]
    proposer = (ROOT / "src/repro/consensus/proposer.py").read_text()
    assert len(SEND_LOOP.findall(proposer)) == 1


def _payload_classes():
    """``(module, class name, decorators above @dataclass, its
    arguments)`` of every wire payload class."""
    found = []
    for path in PAYLOAD_FILES:
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for above, args, name in DATACLASS.findall(path.read_text()):
            if "frozen=True" in args and (
                "slots=True" in args or path.name == "messages.py"
            ):
                found.append((module, name, above, args))
    return found


PAYLOADS = [
    getattr(importlib.import_module(module), name)
    for module, name, _, _ in _payload_classes()
]


def test_every_wire_payload_is_built_by_its_slots():
    found = _payload_classes()
    assert len(found) == 23
    for module, name, above, args in found:
        assert above == "@wire_payload\n", f"{module}.{name}"
        assert "slots=True" in args, f"{module}.{name}"
    consensus = (ROOT / "src/repro/consensus/messages.py").read_text()
    assert consensus.count("@dataclass(") == 11


def _twin(cls):
    """A plain frozen dataclass with ``cls``'s fields, name and
    parameters."""
    params = cls.__dataclass_params__
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default))
         for f in dataclasses.fields(cls)],
        frozen=True, slots=True, eq=params.eq,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


@pytest.mark.parametrize("cls", PAYLOADS, ids=lambda cls: cls.__name__)
def test_a_wire_payload_is_its_frozen_dataclass(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [(cls.__name__, name) for name in names]
    payload, plain = cls(*values), twin(*values)
    assert "__setattr__" not in cls.__init__.__code__.co_names
    assert repr(payload) == repr(plain)
    assert [(f.name, f.default) for f in dataclasses.fields(payload)] == [
        (f.name, f.default) for f in dataclasses.fields(plain)
    ]
    assert (payload == cls(*values)) == (plain == twin(*values))
    if cls.__dataclass_params__.eq:
        assert hash(payload) == hash(plain)
    else:
        assert type(payload).__hash__ is type(plain).__hash__ is object.__hash__
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(payload, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(payload, name)
    if names:
        changed = {names[0]: "changed"}
        assert repr(dataclasses.replace(payload, **changed)) == repr(
            dataclasses.replace(plain, **changed)
        )
        assert repr(cls(**dict(zip(names, values)))) == repr(plain)
    copy = pickle.loads(pickle.dumps(payload))
    assert type(copy) is cls and repr(copy) == repr(payload)
    assert copy.__getstate__() == plain.__getstate__()


def _dataclass(**params):
    def build(body):
        return dataclasses.dataclass(frozen=True, slots=True, **params)(body)

    return build


@pytest.mark.parametrize("build, why", [
    (lambda: _dataclass()(type("Hook", (), {
        "__annotations__": {"x": int},
        "__post_init__": lambda self: None,
    })), "__post_init__"),
    (lambda: _dataclass()(type("Factory", (), {
        "__annotations__": {"x": list},
        "x": dataclasses.field(default_factory=list),
    })), "default_factory"),
    (lambda: _dataclass()(type("Hidden", (), {
        "__annotations__": {"x": int},
        "x": dataclasses.field(default=0, init=False),
    })), "not a positional"),
    (lambda: dataclasses.dataclass(frozen=True)(type("NoSlots", (), {
        "__annotations__": {"x": int},
    })), "frozen=True, slots=True"),
])
def test_wire_payload_refuses_what_would_diverge(build, why):
    with pytest.raises(TypeError, match=re.escape(why)):
        wire_payload(build())


def test_the_cost_pins_share_one_profile_hook():
    assert _sites(PROFILE_HOOK, "tests") == ["tests/counting.py"]


def test_every_oracle_runs_the_one_differential():
    oracles = {
        str(path.relative_to(ROOT))
        for path in (ROOT / "tests").rglob("test_*_oracle.py")
    }
    assert len(oracles) >= 9
    assert oracles <= set(_sites(HARNESS, "tests"))
    assert oracles.isdisjoint(_sites(ANY_ASSERTION_KILLS, "tests"))
