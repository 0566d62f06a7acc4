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
  suffix) names a file that exists.

Exits non-zero listing every broken link (problem reporting shared with
the other gates via ``tools/_gate.py``).
"""

from __future__ import annotations

import ast
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


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (close enough for our docs)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(text: str) -> set:
    return {github_slug(h) for h in HEADING.findall(CODE_FENCE.sub("", text))}


def dangling_paths(path: Path, text: str, root: Path) -> list:
    return [
        f"{path}: names a file that does not exist -> {cited}"
        for cited in sorted(set(REPO_PATH.findall(text)))
        if not (root / cited).is_file()
    ]


def check_file(path: Path, root: Path) -> list:
    text = path.read_text()
    problems = dangling_paths(path, text, root)
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


def main() -> int:
    root = Path.cwd()
    files = sorted((root / "docs").glob("*.md")) + [root / "README.md"]
    missing = [f for f in files if not f.exists()]
    problems = [f"missing file: {f}" for f in missing]
    for path in files:
        if path.exists():
            problems.extend(check_file(path, root))
    modules = sorted((root / "src" / "repro").rglob("*.py"))
    for path in modules:
        docstring = ast.get_docstring(ast.parse(path.read_text()))
        problems.extend(dangling_paths(path, docstring or "", root))
    return finish(
        problems,
        f"docs ok: {len(files)} files, all links and anchors resolve; "
        f"every repository path they and {len(modules)} module "
        f"docstrings name exists",
    )


if __name__ == "__main__":
    sys.exit(main())
