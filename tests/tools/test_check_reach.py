"""The reach gate passes a tree whose dead code is allowlisted and
convicts a dead ``def`` that is not.

``tools/check_reach.py`` enumerates every ``def`` under ``src/repro/``,
runs the reproduction surface under ``sys.setprofile`` and fails on a
``def`` nothing entered unless its allowlist names it with a reason;
its ``--lines`` report lists the body lines an entered ``def`` never
ran.  The full surface takes ~35-45 s and runs in CI's ``gates`` job;
here each mutant is a one-module tree whose surface calls some of its
``def``s.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_reach  # noqa: E402

MUTANT = '''
import functools


def used(flag=False):
    if flag:
        extra = dead()
        return extra + 1
    return Box().size + helper()


def dead():
    return 2


def helper():
    def inner():
        return 1
    return inner()


class Box:
    @property
    def size(self):
        return 3

    def __repr__(self):
        return "Box()"


@functools.lru_cache(maxsize=None)
def cached():
    return 4
'''

ROADMAP = """# ROADMAP

## Open items

- **17 — Rent by reachability.** Its text.

## Recent

- **3 — A finished item.** Done.
"""


def mutant_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mutant.py").write_text(MUTANT)
    (tmp_path / "ROADMAP.md").write_text(ROADMAP)
    return tmp_path


def surface_of(root):
    """Import the mutant by path and call ``used`` and ``cached``."""
    path = (root / "src" / "repro" / "mutant.py").resolve()

    def surface():
        spec = importlib.util.spec_from_file_location("reach_mutant", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.used()
        module.cached()

    return surface


def test_definitions_name_every_def_where_its_code_starts(tmp_path):
    root = mutant_tree(tmp_path)
    found = check_reach.definitions(root / "src" / "repro")
    lines = MUTANT.splitlines()
    assert sorted(found.values()) == [
        "repro/mutant.py::Box.__repr__",
        "repro/mutant.py::Box.size",
        "repro/mutant.py::cached",
        "repro/mutant.py::dead",
        "repro/mutant.py::helper",
        "repro/mutant.py::helper.<locals>.inner",
        "repro/mutant.py::used",
    ]
    # A decorated def's code starts at its first decorator.
    for (_, first), name in found.items():
        if name.endswith(("::cached", "::Box.size")):
            assert lines[first - 1].lstrip().startswith("@")


def test_lines_lists_the_untaken_branch_of_an_entered_def(tmp_path):
    """Of the entered defs only ``used`` skipped lines: the body of the
    ``if`` its surface call does not take, as one span."""
    root = mutant_tree(tmp_path)
    first = MUTANT.splitlines().index("        extra = dead()") + 1
    assert check_reach.unrun_spans(
        root / "src" / "repro", surface_of(root)
    ) == {"repro/mutant.py::used": [(first, first + 1)]}


def test_an_unlisted_dead_def_fails(tmp_path):
    root = mutant_tree(tmp_path)
    assert check_reach.check(root, surface_of(root), {}) == [
        "never entered, not allowlisted: repro/mutant.py::Box.__repr__",
        "never entered, not allowlisted: repro/mutant.py::dead",
    ]


@pytest.mark.parametrize("reason", (
    "error raise", "group (b), ROADMAP item 17",
))
def test_a_listed_dead_def_passes(tmp_path, reason):
    root = mutant_tree(tmp_path)
    allowed = {
        "repro/mutant.py::Box.__repr__": "repr / label",
        "repro/mutant.py::dead": reason,
    }
    assert check_reach.check(root, surface_of(root), allowed) == []


@pytest.mark.parametrize("name, reason, problem", (
    ("repro/mutant.py::used", "error raise",
     "allowlisted, but entered: repro/mutant.py::used"),
    ("repro/mutant.py::gone", "error raise",
     "allowlisted, no such def: repro/mutant.py::gone"),
    ("repro/mutant.py::dead", "unused",
     "allowlisted for no known reason: repro/mutant.py::dead ('unused')"),
    ("repro/mutant.py::dead", "group (b), ROADMAP item 3",
     "allowlisted for no open ROADMAP item: repro/mutant.py::dead "
     "(group (b), ROADMAP item 3)"),
    # Test-only API is no reason to stay: it leaves src/.
    ("repro/mutant.py::dead", "group (a), ROADMAP item 17",
     "allowlisted for no known reason: repro/mutant.py::dead "
     "('group (a), ROADMAP item 17')"),
))
def test_a_wrong_allowlist_line_fails(tmp_path, name, reason, problem):
    root = mutant_tree(tmp_path)
    allowed = {
        "repro/mutant.py::Box.__repr__": "repr / label",
        "repro/mutant.py::dead": "error raise",
        name: reason,
    }
    assert check_reach.check(root, surface_of(root), allowed) == [problem]


def test_the_committed_allowlist_names_live_defs_with_known_reasons():
    """The part of the gate that needs no surface run."""
    allowed = check_reach.read_allowlist(check_reach.ALLOWLIST)
    assert check_reach.lint(ROOT, allowed) == []
