"""Architecture invariants held by scanning sources.

Invariant 1 (ROADMAP, docs/architecture.md): every execution goes
``ScenarioSpec → run → RunResult``, so exactly one module outside the
simulator package wires a deployment — ``repro.scenarios.adapters``,
whose ``ProtocolAdapter.__init__`` builds the simulator/network/trace
triple for every protocol.  Anything else constructing a ``Simulator``
or a ``Network`` is a second way to run an execution.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIRING = re.compile(r"\b(?:Simulator|Network)\(")


def _wiring_sites(*directories):
    return sorted(
        str(path.relative_to(ROOT))
        for directory in directories
        for path in (ROOT / directory).rglob("*.py")
        if WIRING.search(path.read_text(encoding="utf-8"))
    )


def test_only_the_adapters_wire_a_simulator():
    library = [
        site for site in _wiring_sites("src/repro")
        if not site.startswith("src/repro/sim/")
    ]
    assert library == ["src/repro/scenarios/adapters.py"]


def test_benchmarks_and_examples_wire_nothing():
    assert _wiring_sites("benchmarks", "examples") == []
