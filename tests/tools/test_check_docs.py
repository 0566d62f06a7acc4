"""The docs checker passes the tree and convicts dangling citations.

``tools/check_docs.py`` resolves every dotted ``repro.*`` name that
``docs/*.md``, ``README.md`` and the module docstrings under
``src/repro/`` cite, so a deletion that leaves a citation behind fails
CI's ``docs`` job.  Each mutant below is a one-module tree whose
docstring cites one thing that does not exist.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


def test_the_tree_passes():
    assert check_docs.check_tree(ROOT) == []


def test_live_names_resolve():
    for name in (
        "repro.core",                                   # a package
        "repro.core.strategy",                          # a module
        "repro.core.strategy.uniform_strategy",         # a function
        "repro.scenarios.result.RunResult.learner_delays",  # a property
    ):
        assert check_docs.resolves(name), name


def mutant_tree(tmp_path, docstring):
    (tmp_path / "README.md").write_text("# A tree\n")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mutant.py").write_text(f'"""{docstring}"""\n')
    return tmp_path


@pytest.mark.parametrize("cited", (
    "repro.core.lattice",                     # a missing module
    "repro.core.metrics.quorum_load",         # a missing attribute
))
def test_a_dangling_citation_is_convicted(tmp_path, cited):
    root = mutant_tree(tmp_path, f"See :func:`{cited}` for the details.")
    [problem] = check_docs.check_tree(root)
    assert problem.endswith(f"does not exist -> {cited}")
    assert "mutant.py" in problem


ROADMAP = """# ROADMAP

## Open items

- **1 — The first open item.** Its text.
- **7 — Refresh the ruler once.** Its text.

## Recent

- **3 — A finished item.** Done.
"""


@pytest.mark.parametrize("pointer, convicted", (
    ("ROADMAP item 7", False),
    ("ROADMAP item\n7", False),           # wrapped across lines
    ("ROADMAP item 3(B)", True),          # finished: not an open item
    ("ROADMAP item 12", True),            # no such item
))
def test_a_roadmap_pointer_names_an_open_item(tmp_path, pointer, convicted):
    root = mutant_tree(tmp_path, f"Carried: see {pointer}.")
    (root / "ROADMAP.md").write_text(ROADMAP)
    problems = check_docs.check_tree(root)
    if not convicted:
        assert problems == []
    else:
        [problem] = problems
        assert "points at no open ROADMAP item" in problem
        assert "mutant.py" in problem
