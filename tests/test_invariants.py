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

A record class is built one way (docs/architecture.md, "Record
classes"): nothing under ``src/repro`` but the builder,
``repro.records``, calls the stdlib's ``dataclass`` or
``make_dataclass``.  Each record is held to a stdlib ``@dataclass`` twin
compiled from its own source with the same flags — signature, defaults
and factories, ``==``, ``hash``, ``repr``, ``__doc__``,
``FrozenInstanceError``, ``fields``, ``replace``, ``__match_args__``,
``__post_init__`` and a pickle round trip — five seeded builder mutants
die of that differential, and importing every record module runs one
``exec`` per record class and none in ``dataclasses``.

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

import __future__
import ast
import contextlib
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
import types
from fractions import Fraction
from pathlib import Path

import pytest

from repro.records import record
from tests.differential import agree, assert_killed, each_mutant

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
RECORD = re.compile(r"^@record\b.*\nclass (\w+)", re.MULTILINE)
STDLIB_DATACLASS = re.compile(
    r"\bmake_dataclass\b|\bdataclasses\.dataclass\b"
    r"|^from dataclasses import .*\bdataclass\b|^\s*@dataclass\b",
    re.MULTILINE,
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
    # no record can be declared
    assert imported.isdisjoint({"dataclasses", "repro.records"})
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
    assert len(handlers) >= 15
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


def test_a_server_that_never_answers_is_a_crash():
    # ``Crash(sid, 0.0)``: a silent Byzantine server would be a second
    # spelling of it.
    import repro.storage
    from repro.storage import server

    assert not hasattr(server, "SilentServer")
    assert "SilentServer" not in repro.storage.__all__


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


def _record_classes():
    """``(module, class name)`` of every class ``@record`` builds under
    ``src/repro``."""
    return [
        (".".join(path.relative_to(ROOT / "src").with_suffix("").parts), name)
        for path in sorted((ROOT / "src/repro").rglob("*.py"))
        for name in RECORD.findall(path.read_text(encoding="utf-8"))
    ]


RECORDS = [
    getattr(importlib.import_module(module), name)
    for module, name in _record_classes()
]


def test_every_record_class_is_built_by_the_one_builder():
    assert _sites(STDLIB_DATACLASS, "src/repro") == ["src/repro/records.py"]
    assert len(RECORDS) >= 69
    modules = {importlib.import_module(cls.__module__) for cls in RECORDS}
    assert {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
        and "__dataclass_fields__" in vars(value)
    } == set(RECORDS)


def test_a_record_stores_its_fields_by_its_kind():
    """A frozen slotted payload stores through its slots' descriptors,
    another frozen record through ``object.__setattr__``, a mutable one
    by plain assignment (descriptor stores would triple
    ``OperationRecord``'s constructor)."""
    for cls in RECORDS:
        init = cls.__init__.__code__
        if init.co_filename != "<string>" or not dataclasses.fields(cls):
            continue  # the class wrote its own, or stores nothing
        params, names = cls.__dataclass_params__, set(init.co_names)
        through = (
            "descriptor" if any(n.startswith("_set_") for n in names)
            else "object.__setattr__" if "_object_setattr" in names
            else "assignment"
        )
        assert through == (
            "assignment" if not params.frozen
            else "descriptor" if "__slots__" in vars(cls)
            else "object.__setattr__"
        ), cls.__qualname__


def _twin(cls, decorator=dataclasses.dataclass):
    """``cls`` built again from its own source with ``decorator`` in
    place of ``record``: the stdlib ``@dataclass`` with the same flags
    and body, or a builder under test."""
    source = textwrap.dedent(inspect.getsource(cls))
    namespace = {**vars(sys.modules[cls.__module__]), "record": decorator}
    exec(compile(
        source, inspect.getsourcefile(cls), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    ), namespace)
    return namespace[cls.__name__]


def _evaluate(point):
    return {"n": point["n"]}


def _example(cls):
    """``(call, call with defaults, replace changes)`` for ``cls``: a
    call is ``(args, kwargs)``.  Without an entry in :data:`EXAMPLES`,
    every field gets a tuple naming it, and the last one is replaced."""
    if cls.__qualname__ in EXAMPLES:
        return EXAMPLES[cls.__qualname__]()
    own = [f for f in dataclasses.fields(cls) if f.init]
    given = {f.name: (cls.__qualname__, f.name) for f in own}
    required = {
        name: value for name, value in given.items()
        if cls.__dataclass_fields__[name].default is dataclasses.MISSING
        and cls.__dataclass_fields__[name].default_factory
        is dataclasses.MISSING
    }
    changes = {own[-1].name: ("changed",)} if own else {}
    return ((), given), ((), required), changes


def _algebra():
    from repro.core.algebra import Node

    return Node("a"), Node("b", 2, 3), Node("c")


def _weights(*quorums):
    share = Fraction(1, len(quorums))
    return tuple((frozenset(q), share) for q in quorums)


#: Records whose ``__post_init__`` or own ``__init__`` refuses a tuple
#: of names: a call that builds one.
EXAMPLES = {
    "Delay": lambda: (
        ((), {"delay": 2.5, "src": ("writer",), "label": "slow"}),
        ((), {"delay": 0}), {"delay": 1.0},
    ),
    "RandomMix": lambda: (
        ((), {"writes": 3, "reads": 4, "horizon": 10.0,
              "distribution": "zipfian", "batch_size": 2}),
        ((), {"writes": 1, "reads": 1, "horizon": 1.0}), {"skew": 2.0},
    ),
    "ScenarioSpec": lambda: (
        ((), {"protocol": "abd", "workload": [("op",)], "seed": 3,
              "params": {"shard_count": 3}}),
        ((), {"protocol": "abd"}), {"seed": 7},
    ),
    "SweepSpec": lambda: (
        ((), {"name": "grid", "axes": {"n": [1, 2]}, "evaluate": _evaluate}),
        ((), {"name": "grid", "axes": {"n": [1]}}), {"name": "other"},
    ),
    "SweepResult": lambda: (
        ((), {"name": "grid", "axes": [("n", ["1", "2"])], "cells": [],
              "metadata": {"k": 1}}),
        ((), {"name": "grid", "axes": (), "cells": ()}), {"name": "other"},
    ),
    "Strategy": lambda: (
        ((), {"read_weights": _weights("ab", "bc"),
              "write_weights": _weights("abc"), "read_fraction": 0.25}),
        ((), {"read_weights": _weights("a"), "write_weights": _weights("a")}),
        {"load": Fraction(1, 2)},
    ),
    "Node": lambda: (
        ((), {"name": "a", "read_capacity": 2, "write_capacity": 3}),
        ((), {"name": "a"}), {"write_capacity": 5},
    ),
    "And": lambda: (
        (_algebra(), {}), (_algebra()[:1], {}),
        {"operands": _algebra()[1:]},
    ),
    "Or": lambda: (
        (_algebra(), {}), (_algebra()[:1], {}),
        {"operands": _algebra()[1:]},
    ),
    "QuorumSystem": lambda: (
        ((), {"reads": _algebra()[0] * _algebra()[2]}),
        ((), {"writes": _algebra()[0]}), {"writes": None},
    ),
}


def _outcome(call):
    """What ``call()`` returned, or the error it raised."""
    try:
        return "returned", call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


@contextlib.contextmanager
def _published(cls):
    """``cls`` under its own name in its module while pickle looks it
    up there (a twin is not the module's class)."""
    module = sys.modules[cls.__module__]
    shipped = getattr(module, cls.__name__)
    setattr(module, cls.__name__, cls)
    try:
        yield
    finally:
        setattr(module, cls.__name__, shipped)


def _post_init_calls(side, call):
    """How many times building ``call`` runs ``side.__post_init__``."""
    if not hasattr(side, "__post_init__"):
        return None
    own, real, calls = vars(side).get("__post_init__"), side.__post_init__, []

    def counted(self):
        calls.append(self)
        real(self)

    side.__post_init__ = counted
    try:
        return _outcome(lambda: repr(side(*call[0], **call[1]))), len(calls)
    finally:
        if own is None:
            del side.__post_init__
        else:
            side.__post_init__ = own


#: What the differential compares, one observation a step.
OBSERVATIONS = {
    "signature": lambda side, make, call, changes: inspect.signature(side),
    "doc": lambda side, make, call, changes: side.__doc__,
    "match_args": lambda side, make, call, changes: side.__match_args__,
    "params": lambda side, make, call, changes: repr(
        side.__dataclass_params__
    ),
    "fields": lambda side, make, call, changes: [
        (f.name, f.type, f.default, getattr(
            f.default_factory, "__qualname__", f.default_factory
        ), f.init, f.repr, f.hash, f.compare, f.kw_only)
        for f in dataclasses.fields(side)
    ],
    "post_init": lambda side, make, call, changes: _post_init_calls(
        side, call
    ),
    "repr": lambda side, make, call, changes: _outcome(lambda: repr(make())),
    "defaults": lambda side, make, call, changes: _outcome(
        lambda: repr(side(*call[0], **call[1]))
    ),
    "factories": lambda side, make, call, changes: _outcome(lambda: [
        getattr(first, f.name) is getattr(second, f.name)
        for first, second in [(side(*call[0], **call[1]),
                               side(*call[0], **call[1]))]
        for f in dataclasses.fields(side)
        if f.default_factory is not dataclasses.MISSING
    ]),
    "eq": lambda side, make, call, changes: _outcome(lambda: [
        (x == make(), x != make(), x == side(*call[0], **call[1]),
         x == types.SimpleNamespace(**{
             f.name: getattr(x, f.name) for f in dataclasses.fields(x)
         }))
        for x in [make()]
    ]),
    "hash": lambda side, make, call, changes: (
        side.__hash__ if side.__hash__ in (None, object.__hash__)
        else _outcome(lambda: hash(make()))
    ),
    "setattr": lambda side, make, call, changes: _outcome(lambda: [
        ([_outcome(lambda: setattr(x, name, ("set",))) for name in names],
         repr(x))
        for x, names in [(make(), [f.name for f in dataclasses.fields(side)])]
    ]),
    "delattr": lambda side, make, call, changes: _outcome(lambda: [
        _outcome(lambda: delattr(make(), f.name))
        for f in dataclasses.fields(side)
    ]),
    "replace": lambda side, make, call, changes: _outcome(
        lambda: repr(dataclasses.replace(make(), **changes))
    ),
    "pickle": lambda side, make, call, changes: _outcome(lambda: [
        (repr(copy), copy == x, x.__getstate__() == copy.__getstate__())
        for x in [make()]
        for copy in [pickle.loads(pickle.dumps(x))]
    ]),
}


def _differential(reference, subject, example):
    """Hold ``subject`` to ``reference`` on every observation of
    ``example`` (:func:`_example`'s triple)."""
    (args, kwargs), defaults, changes = example

    def observe(side, step):
        with _published(side):
            return OBSERVATIONS[step](
                side, lambda: side(*args, **kwargs), defaults, changes
            )

    agree(reference, subject, list(OBSERVATIONS), observe)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_is_its_stdlib_dataclass(cls):
    _differential(_twin(cls), cls, _example(cls))


#: Seeded builder mutants: ``(record it dies on, builder text, mutant
#: text)``.
MUTANTS = {
    "a hash that drops the last field": (
        "WR", "_tuple('self', keyed)", "_tuple('self', keyed[:-1])",
    ),
    "an __eq__ without the class check": (
        "WR", '" if other.__class__ is self.__class__:"', '" if True:"',
    ),
    "an __init__ that skips __post_init__": (
        "FaultPlan", 'body.append(" self.__post_init__()")', "pass",
    ),
    "an unguarded __delattr__": (
        "WR", "cls.__delattr__ = _frozen_delattr", "pass",
    ),
    "a default_factory called once at class build": (
        "OnlineReport",
        'namespace[f"_factory_{f.name}"] = f.default_factory',
        'namespace[f"_factory_{f.name}"] = '
        "(lambda made: lambda: made)(f.default_factory())",
    ),
}


def _mutant_builder(old, new):
    """``record`` from a copy of the builder with ``old`` (which it
    holds once) replaced by ``new``."""
    source = (ROOT / "src/repro/records.py").read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    module = types.ModuleType("repro.records")
    exec(compile(source.replace(old, new), "records.py", "exec"),
         module.__dict__)
    return module.record


@each_mutant(MUTANTS)
def test_a_builder_mutant_dies_on_its_record(mutant):
    name, old, new = MUTANTS[mutant]
    (cls,) = [cls for cls in RECORDS if cls.__qualname__ == name]
    example = _example(cls)

    def rebuild(builder):
        _differential(_twin(cls), _twin(cls, builder), example)

    assert_killed(rebuild, record, _mutant_builder(old, new))


def test_a_record_class_costs_one_exec():
    """Importing every module that declares records runs one ``exec``
    per record class, in the builder, and none in ``dataclasses``
    (counted by a wrapped ``exec``; no clock)."""
    modules = sorted({module for module, _ in _record_classes()})
    probe = textwrap.dedent(f"""
        import builtins, importlib, json, sys
        calls, real = {{}}, builtins.exec

        def counting(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            calls[caller] = calls.get(caller, 0) + 1
            return real(*args, **kwargs)

        builtins.exec = counting
        for name in {modules!r}:
            importlib.import_module(name)
        print(json.dumps(calls))
    """)
    calls = json.loads(subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, check=True, text=True, timeout=120,
    ).stdout)
    assert calls.get("repro.records") == len(RECORDS)
    assert "dataclasses" not in calls


def test_the_cost_pins_share_one_profile_hook():
    assert _sites(PROFILE_HOOK, "tests") == ["tests/counting.py"]


def test_every_oracle_runs_the_one_differential():
    oracles = {
        str(path.relative_to(ROOT))
        for path in (ROOT / "tests").rglob("test_*_oracle.py")
    }
    assert len(oracles) >= 10
    assert oracles <= set(_sites(HARNESS, "tests"))
    assert oracles.isdisjoint(_sites(ANY_ASSERTION_KILLS, "tests"))
