#!/usr/bin/env python3
"""Delete each proof obligation in turn and see whether a test notices.

A proof obligation is a ``require(...)`` call or a ``raise
InvariantError(...)`` statement in ``src/witt12``.  For each one, this
script copies ``src/``, ``tests/``, ``scripts/``, ``perfbench/`` (whose
tracer table a test reads) and ``pyproject.toml`` to a temporary
directory, replaces that one statement with ``pass`` in the copy, and
runs the Tier-1 suite there with ``-x``.  The obligation is killed when
the suite fails, and survives when it passes: then no test has ever
seen it fire.  The tree itself is never written.  The unmutated suite
runs first in the copy: if it fails there, no obligation is counted and
the script exits 2.

    python3 scripts/mutate_requires.py

Prints one line per obligation and the survivor count, and exits 1 if
any obligation survives.  Each survivor costs one full run of the
suite, so a whole sweep takes several minutes; it is not part of the
suite.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "witt12"


def _name(call: ast.AST) -> str | None:
    return call.func.id if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) else None


def sites(source: str) -> list[ast.stmt]:
    """The obligation statements of one module, in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and _name(node.value) == "require":
            out.append(node)
        elif isinstance(node, ast.Raise) and _name(node.exc) == "InvariantError":
            out.append(node)
    return sorted(out, key=lambda n: (n.lineno, n.col_offset))


def without(source: str, node: ast.stmt) -> str:
    """The source with the statement replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    head = "".join(lines[: node.lineno - 1]) + lines[node.lineno - 1][: node.col_offset]
    tail = lines[node.end_lineno - 1][node.end_col_offset:] + "".join(lines[node.end_lineno:])
    return head + "pass" + tail


def survives(work: Path) -> bool:
    """Whether the suite in the work directory passes."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    return subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode == 0


def main() -> int:
    survivors = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "scripts", "perfbench"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if not survives(work):
            print("the unmutated suite fails in the copy; no obligation counted", file=sys.stderr)
            return 2
        for f in sorted((ROOT / PACKAGE).glob("*.py")):
            source = f.read_text()
            target = work / PACKAGE / f.name
            for node in sites(source):
                total += 1
                target.write_text(without(source, node))
                try:
                    alive = survives(work)
                finally:
                    target.write_text(source)
                survivors += alive
                where = f"{PACKAGE / f.name}:{node.lineno}: {ast.get_source_segment(source, node)}"
                print(f"{'SURVIVED' if alive else 'killed  '} {where.splitlines()[0]}", flush=True)
    print(f"{total} obligations, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
