#!/usr/bin/env python3
"""Compare the CLI outputs of this tree with those of a second checkout.

Runs one fixed list of command lines in both trees, each as a cold
``python -m witt12.cli`` process, and compares the exit code, stderr and
the sha256 of stdout (or, for ``construct --out``, of the written file):
``table``; ``aut``, ``construct --out``, ``classify --witnesses`` and
``verify`` of the canonical file at all 13 U; ``block`` by both methods
through three five-sets of W at each U (the first five, the last five
and every other point of W); ``verify`` of one tampered file and of
one file with a witness record that names no witness (exit 1), and of
one file with a changed point coordinate and one with a bool
coefficient (exit 2); ``remark3`` and ``derive`` on all 52 (U, line
through U) pairs; ``block`` by both methods through a repeated point
and through U (exit 2); and four usage or write errors (exit 2):
U = #13, a line not through U, a missing file and ``construct --out``
into a missing directory; each in the table and the structured format:
494 command lines.  A ``verify`` line reads the file that its tree's own
``construct --out`` writes; the tampered copy has one point of its
first block replaced by the least point of W outside it, the formless
copy has lost the form of its first conic record, the reframed copy
writes its first point as the double of its coordinates, and the
boolform copy writes the first coefficient of its first conic record
as ``true``.  Prints every difference and exits 1 if there is any,
else 0.

Usage: python3 scripts/same_outputs.py PARENT_DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("table", "structured")
# the files verify lines read: U's canonical design, or a changed copy
DESIGN_FILE = re.compile(r"(design|tampered|formless|reframed|boolform)-([0-9]+)\.json")


def commands() -> list[list[str]]:
    """The fixed command lines, in the order they are run."""
    sys.path.insert(0, str(ROOT / "src"))
    from witt12.plane import PLANE

    pairs = [(u, g.index) for u in range(13) for g in PLANE.lines if u in g.points]
    off_4 = next(g.index for g in PLANE.lines if 4 not in g.points)
    out = []
    for fmt in FORMATS:
        out.append(["table", "--format", fmt])
        for u in range(13):
            out.append(["aut", "--u", f"#{u}", "--format", fmt])
            out.append(["construct", "--u", f"#{u}", "--format", fmt, "--out", "out.txt"])
            out.append(["classify", "--witnesses", "--u", f"#{u}", "--format", fmt])
            out.append(["verify", "--format", fmt, f"design-{u}.json"])
            w = [f"#{x}" for x in range(13) if x != u]
            for five in (w[:5], w[-5:], w[::2][:5]):
                for method in ("lookup", "solve"):
                    out.append(["block", *five, "--u", f"#{u}", "--method", method, "--format", fmt])
        out.append(["verify", "--format", fmt, "tampered-4.json"])
        out.append(["verify", "--format", fmt, "formless-4.json"])
        out.append(["verify", "--format", fmt, "reframed-4.json"])
        out.append(["verify", "--format", fmt, "boolform-4.json"])
        for u, g in pairs:
            for name in ("remark3", "derive"):
                out.append([name, "--u", f"#{u}", "--line", f"#{g}", "--format", fmt])
        for five in (["#0", "#0", "#1", "#2", "#3"], ["#0", "#1", "#2", "#3", "#4"]):
            for method in ("lookup", "solve"):
                out.append(["block", *five, "--u", "#4", "--method", method, "--format", fmt])
        out.append(["construct", "--u", "#13", "--format", fmt])
        out.append(["remark3", "--u", "#4", "--line", f"#{off_4}", "--format", fmt])
        out.append(["verify", "--format", fmt, "missing.json"])
        out.append(["construct", "--format", fmt, "--out", "no-such-dir/out.txt"])
    return out


def tamper(text: str) -> str:
    """The design file with the last point of its first block replaced
    by the least point of W outside that block."""
    doc = json.loads(text)
    block = doc["blocks"][0]
    block[-1] = min(set(range(13)) - {doc["u"], *block})
    block.sort()
    return json.dumps(doc, indent=2) + "\n"


def lose_form(text: str) -> str:
    """The design file with the form of its first conic record removed."""
    doc = json.loads(text)
    next(c for c in doc["classes"] if c["kind"] == "conic_exterior").pop("form")
    return json.dumps(doc, indent=2) + "\n"


def reframe(text: str) -> str:
    """The design file with its first point written as the double of its
    coordinates: the same point, but not the canonical frame."""
    doc = json.loads(text)
    doc["points"][0] = ":".join(str(2 * int(c) % 3) for c in doc["points"][0].split(":"))
    return json.dumps(doc, indent=2) + "\n"


def bool_coefficient(text: str) -> str:
    """The design file with the first coefficient of its first conic
    record written as the JSON literal true."""
    doc = json.loads(text)
    next(c for c in doc["classes"] if c["kind"] == "conic_exterior")["form"][0] = True
    return json.dumps(doc, indent=2) + "\n"


CHANGED_COPIES = {"tampered": tamper, "formless": lose_form, "reframed": reframe, "boolform": bool_coefficient}


def run(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, sha256 of stdout or of the --out file, stderr) of one command."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cli = [sys.executable, "-m", "witt12.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        wanted = DESIGN_FILE.fullmatch(argv[-1])
        if wanted:
            kind, u = wanted.groups()
            design = Path(tmp, f"design-{u}.json")
            subprocess.run([*cli, "construct", "--u", f"#{u}", "--out", design], cwd=tmp, env=env, check=True)
            if kind != "design":
                Path(tmp, argv[-1]).write_text(CHANGED_COPIES[kind](design.read_text()))
        p = subprocess.run([*cli, *argv], cwd=tmp, env=env, capture_output=True)
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
