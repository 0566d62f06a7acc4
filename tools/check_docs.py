"""Docs sanity checker: relative links resolve, TOC anchors exist.

Run from the repository root (CI's docs job does)::

    python tools/check_docs.py

Checks every ``docs/*.md`` file plus ``README.md``:

* relative markdown links (``[text](path)`` and ``[text](path#anchor)``)
  point at files that exist;
* intra-document anchors (``#anchor`` links, including the Contents
  sections) match a heading's GitHub-style slug;

and, in those files and in every module docstring under ``src/repro/``:

* a backticked repository path to a Python file under ``tests/``,
  ``benchmarks/``, ``src/`` or ``tools/`` (with or without a ``::test``
  suffix) names a file that exists;
* a dotted name ``repro.<module>[.<attribute>…]`` resolves: the longest
  prefix that imports is a module, and the rest is an attribute chain
  on it (the package under ``src/`` is imported, so a deleted module or
  function leaves no citation behind);
* a ``ROADMAP item N`` pointer names an open item of ``ROADMAP.md`` (a
  ``- **N — …`` entry of its "Open items" section), so a finished,
  renumbered or struck item leaves no pointer behind.

Exits non-zero listing every broken link (problem reporting shared with
the other gates via ``tools/_gate.py``).
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

from _gate import finish

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
REPO_PATH = re.compile(
    r"`((?:tests|benchmarks|src|tools)/[\w/.-]+\.py)(?:::[^`\s]+)?`"
)
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
ROADMAP_POINTER = re.compile(r"\bROADMAP\s+item\s+(\d+)")
OPEN_ITEM = re.compile(r"^- \*\*(\d+) —", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (close enough for our docs)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(text: str) -> set:
    return {github_slug(h) for h in HEADING.findall(CODE_FENCE.sub("", text))}


def resolves(name: str) -> bool:
    """Whether ``repro.a.b.c`` names an importable module or an
    attribute chain on the longest importable prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def open_items(root: Path) -> set:
    """The numbers of the open items of ``root``'s ``ROADMAP.md``."""
    roadmap = root / "ROADMAP.md"
    text = roadmap.read_text() if roadmap.exists() else ""
    section = text.partition("\n## Open items")[2].split("\n## ", 1)[0]
    return {int(number) for number in OPEN_ITEM.findall(section)}


def dangling(path: Path, text: str, root: Path) -> list:
    """Cited repository paths that are not files, dotted ``repro``
    names that do not resolve, and ROADMAP items that are not open."""
    items = open_items(root)
    return [
        f"{path}: names a file that does not exist -> {cited}"
        for cited in sorted(set(REPO_PATH.findall(text)))
        if not (root / cited).is_file()
    ] + [
        f"{path}: names something that does not exist -> {cited}"
        for cited in sorted(set(DOTTED.findall(text)))
        if not resolves(cited)
    ] + [
        f"{path}: points at no open ROADMAP item -> item {number}"
        for number in sorted(set(ROADMAP_POINTER.findall(text)), key=int)
        if int(number) not in items
    ]


def check_file(path: Path, root: Path) -> list:
    text = path.read_text()
    problems = dangling(path, text, root)
    own_anchors = anchors_of(text)
    for target in LINK.findall(CODE_FENCE.sub("", text)):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            dest = (path.parent / file_part).resolve()
            if not dest.exists():
                problems.append(f"{path}: broken link -> {target}")
                continue
            dest_anchors = (
                anchors_of(dest.read_text())
                if dest.suffix == ".md" else set()
            )
        else:
            dest_anchors = own_anchors
        if anchor and anchor not in dest_anchors:
            problems.append(f"{path}: broken anchor -> {target}")
    return problems


def check_tree(root: Path) -> list:
    """Every problem in ``root``'s docs and module docstrings."""
    files = sorted((root / "docs").glob("*.md")) + [root / "README.md"]
    problems = [f"missing file: {f}" for f in files if not f.exists()]
    for path in files:
        if path.exists():
            problems.extend(check_file(path, root))
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        docstring = ast.get_docstring(ast.parse(path.read_text()))
        problems.extend(dangling(path, docstring or "", root))
    return problems


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    return finish(
        check_tree(root),
        "docs ok: the links and anchors of docs/*.md and README.md "
        "resolve, and every repository path, repro.* name and ROADMAP "
        "item they and the module docstrings under src/repro/ cite "
        "exists",
    )

if __name__ == "__main__":
    sys.exit(main())
