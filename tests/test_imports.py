"""What a process imports follows what it builds and runs.

The paper has two halves — the storage of Figures 5–7 (with ABD as the
crash-model baseline) and the consensus of Figures 9–15 — and a process
that runs one of them compiles that one only.  Package ``__init__``s
import no submodule (their public names resolve on first access), a
built-in protocol id's family module loads on the first lookup of the
id, and a ``ScenarioSpec`` / ``SweepSpec`` looks its protocols up when
it is built — so the imports land in a run's set-up, never inside a
timed ``run`` / ``run_grid``.

The same holds for the stdlib's process-pool stack and for the
quorum-strategy solver: only a sharded spec loads the pool (when it is
built), only the multiprocessing grid backend loads it on its first
call, and only a spec that sets ``quorum_strategy`` loads
:mod:`repro.core.strategy` (when it is built).  ``csv`` loads only for
``SweepResult.to_csv``, which no soak calls.

Each pin runs in a fresh interpreter and compares ``sys.modules``; no
wall clock is read.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The stdlib modules the probe reports besides ``repro``'s own: the
#: process-pool stack a sharded run or the multiprocessing grid backend
#: needs, and no other run.
POOL = (
    "multiprocessing", "concurrent.futures", "concurrent.futures.process",
    "pickle",
)

#: What the probe reports: ``repro``'s modules, :data:`POOL`, and the
#: CSV writer that only ``SweepResult.to_csv`` imports — each name with
#: its submodules (``multiprocessing.popen_fork`` is a pool module).
PROBED = POOL + ("csv",)

_PROBE = """
import json, sys

def loaded():
    return {m for m in sys.modules
            if any(m == family or m.startswith(family + ".")
                   for family in ("repro",) + %r)}

%s
built = loaded()
%s
print(json.dumps([sorted(built), sorted(loaded() - built)]))
"""


def imports(build: str, use: str = ""):
    """``(modules after build, modules use imported on top)`` — the
    :data:`PROBED` modules (and their submodules) a fresh interpreter
    holds after running ``build``, and the ones running ``use``
    afterwards added."""
    code = _PROBE % (PROBED, textwrap.dedent(build), textwrap.dedent(use))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, check=True, text=True, timeout=120,
    ).stdout
    built, added = json.loads(out)
    return set(built), set(added)


def within(modules, *families):
    """The modules that are one of ``families`` or inside one."""
    return sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in families)
    )


RQS_STORAGE = tuple(
    f"repro.storage.{name}"
    for name in ("reader", "writer", "server", "predicates", "regular",
                 "messages")
)


def soak(protocol: str, changes=None, **knobs) -> str:
    """Build a 400-op keyed soak; ``changes`` go through ``with_``."""
    build = textwrap.dedent(f"""
    from repro.experiments import keyed_mix_spec
    spec = keyed_mix_spec(
        {protocol!r}, 16, writes=40, reads=60, readers=4, seed=5,
        trace_level="metrics", max_ops=400, **{knobs!r},
    )
    """)
    return build + (f"spec = spec.with_(**{changes!r})\n" if changes else "")


RUN_SOAK = """
from repro.scenarios import run
result = run(spec)
assert result.ops_completed() == result.ops_begun() == 400
assert result.online.violation_count == 0
"""


def test_an_abd_soak_imports_the_abd_kernel_only():
    built, added = imports(soak("abd"), RUN_SOAK)
    assert added == set(), "a timed run imported a module"
    assert within(built, "repro.consensus", "repro.crypto", "repro.core",
                  "repro.analysis.consensus_check",
                  "repro.analysis.latency", *RQS_STORAGE) == []
    assert "repro.scenarios.abd_adapters" in built
    assert within(built, *POOL, "csv") == []
    assert len(within(built, "repro")) <= 31, sorted(built)


def test_an_rqs_storage_soak_imports_no_consensus_and_no_abd():
    built, added = imports(
        soak("rqs-storage", params={"bounded_history": True}), RUN_SOAK
    )
    assert added == set(), "a timed run imported a module"
    assert within(built, "repro.consensus", "repro.crypto",
                  "repro.storage.abd",
                  "repro.scenarios.abd_adapters",
                  "repro.scenarios.consensus_adapters",
                  "repro.core.strategy", *POOL, "csv") == []
    assert set(RQS_STORAGE) <= built
    assert "repro.core.constructions" in built


def test_a_sharded_spec_loads_the_pool_where_it_is_built():
    built, added = imports(soak("abd", changes={"shards": 2}), RUN_SOAK)
    assert added == set(), "a timed sharded run imported a module"
    assert set(POOL) | {
        "multiprocessing.popen_fork", "multiprocessing.synchronize",
    } <= built


def test_a_quorum_strategy_loads_its_solver_where_the_spec_is_built():
    built, added = imports(
        soak("rqs-storage", changes={"quorum_strategy": "uniform"}),
        RUN_SOAK,
    )
    assert added == set(), "a timed run imported a module"
    assert "repro.core.strategy" in built
    assert within(built, *POOL) == []


EXHIBIT_GRIDS = """
from repro.experiments import (
    baselines, bounds, consensus_latency, contention, fig1, fig4,
    storage_latency, stress, theorem3, theorem6,
)
grids = [
    fig1.GRID, fig4.GRID, storage_latency.GRID, theorem3.GRID,
    consensus_latency.GRID, theorem6.CHOOSE_GRID,
    theorem6.END_TO_END_GRID, baselines.STORAGE_GRID,
    baselines.CONSENSUS_GRID, contention.GRID,
    stress.liveness_grid(40.0, 2000.0), bounds.bounds_grid(7),
    stress.storage_stress_grid(seeds=range(5000, 5008)),
]
"""


def test_running_the_exhibit_grids_imports_nothing_their_set_up_did_not():
    built, added = imports(EXHIBIT_GRIDS, """
    from repro.scenarios import run_grid
    for grid in grids:
        assert all(cell.ok for cell in run_grid(grid).cells), grid.name
    """)
    assert added == set(), "a timed run_grid imported a module"
    assert "repro.scenarios.consensus_adapters" in built
    assert within(built, *POOL) == []


def test_the_multiprocessing_backend_imports_its_pool_on_first_call():
    """The pool stack and ``pickle`` load inside the first
    multiprocessing ``run_grid`` of a process, whose forked workers
    inherit the sweep: the output is the serial backend's, byte for
    byte."""
    built, added = imports(
        """
        from repro.experiments import stress
        from repro.scenarios import run_grid
        grid = stress.storage_stress_grid(range(5000, 5004))
        """,
        """
        pooled = run_grid(grid, executor="multiprocessing", processes=2)
        assert pooled.to_json() == run_grid(grid).to_json()
        """,
    )
    assert within(built, *POOL) == []
    assert set(POOL) <= added


def test_a_package_imports_no_submodule_and_lists_every_protocol():
    built, added = imports(
        "import repro, repro.core, repro.storage, repro.analysis",
        """
        from repro.scenarios import available_protocols
        assert available_protocols() == (
            "abd", "fastabd", "naive", "paxos", "pbft", "rqs-consensus",
            "rqs-regular", "rqs-storage",
        ), available_protocols()
        """,
    )
    assert built == {"repro", "repro.core", "repro.storage",
                     "repro.analysis"}
    assert within(added, "repro.scenarios.abd_adapters",
                  "repro.scenarios.rqs_adapters",
                  "repro.scenarios.consensus_adapters",
                  "repro.storage.abd", "repro.core", "repro.consensus") == []


LAZY_PACKAGES = (
    "repro", "repro.core", "repro.storage", "repro.analysis",
    "repro.scenarios",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed, name
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        module.no_such_name
