#!/usr/bin/env python3
"""Compare the CLI outputs of this tree with those of a second checkout.

Runs one fixed list of command lines in both trees, each as a cold
``python -m witt12.cli`` process, and compares the exit code, stderr and
the sha256 of stdout (or, for ``construct --out``, of the written file):
``aut``, ``construct --out`` and ``classify --witnesses`` at all 13 U,
``block --method lookup`` through three five-sets of W at each U (the
first five, the last five and every other point of W),
``remark3`` and ``derive`` on all 52 (U, line through U) pairs, each in
the table and the structured format.  Prints every difference and exits
1 if there is any, else 0.

Usage: python3 scripts/same_outputs.py PARENT_DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("table", "structured")


def commands() -> list[list[str]]:
    """The fixed command lines, in the order they are run."""
    sys.path.insert(0, str(ROOT / "src"))
    from witt12.plane import PLANE

    pairs = [(u, g.index) for u in range(13) for g in PLANE.lines if u in g.points]
    out = []
    for fmt in FORMATS:
        for u in range(13):
            out.append(["aut", "--u", f"#{u}", "--format", fmt])
            out.append(["construct", "--u", f"#{u}", "--format", fmt, "--out", "out.txt"])
            out.append(["classify", "--witnesses", "--u", f"#{u}", "--format", fmt])
            w = [f"#{x}" for x in range(13) if x != u]
            for five in (w[:5], w[-5:], w[::2][:5]):
                out.append(["block", *five, "--u", f"#{u}", "--method", "lookup", "--format", fmt])
        for u, g in pairs:
            for name in ("remark3", "derive"):
                out.append([name, "--u", f"#{u}", "--line", f"#{g}", "--format", fmt])
    return out


def run(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, sha256 of stdout or of the --out file, stderr) of one command."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        p = subprocess.run(
            [sys.executable, "-m", "witt12.cli", *argv], cwd=tmp, env=env, capture_output=True
        )
        out = Path(tmp, "out.txt")
        data = out.read_bytes() if "--out" in argv and out.exists() else p.stdout
    return p.returncode, hashlib.sha256(data).hexdigest(), p.stderr.decode(errors="replace")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    args = parser.parse_args()
    if not (args.parent / "src" / "witt12").is_dir():
        parser.error(f"{args.parent} has no src/witt12")
    cmds = commands()
    differences = 0
    for argv in cmds:
        theirs, ours = run(args.parent.resolve(), argv), run(ROOT, argv)
        if theirs != ours:
            differences += 1
            print(f"differs: {' '.join(argv)}: parent {theirs!r}, this tree {ours!r}")
    print(f"{len(cmds)} command lines, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
