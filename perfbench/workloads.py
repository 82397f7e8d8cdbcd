"""Seeded operation streams for the three workloads.

An operation is a tuple whose first item names its kind.  The streams
depend only on the seed, never on the program's outputs, so the same
seed gives the same operations on every commit.

- cli-design: rounds of seven cold commands for one U, the construct
  first (verify and the tampered file read what it wrote), the other six
  shuffled.  U walks through seeded permutations of all 13 points.
- cli-group: rounds of one ``aut`` and two ``remark3`` on distinct lines
  through the same U, shuffled.  Two remark3 per aut keep the median
  operation inside one latency cluster instead of between two.
- lib-solve: passes over all 13 U in seeded order; for each U all 792
  five-sets of W in seeded order, then one ``verify_t_design``.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from oracle import LINES, POINTS

N = len(POINTS)
REFERENCE_U = 4


def _w(u: int) -> list[int]:
    return [x for x in range(N) if x != u]


def _through(u: int) -> list[int]:
    return [k for k, ln in enumerate(LINES) if u in ln]


def _u_cycle(rng: random.Random):
    while True:
        order = list(range(N))
        rng.shuffle(order)
        yield from order


def cli_design_rounds(seed: int):
    rng = random.Random(seed)
    for u in _u_cycle(rng):
        rest = [
            ("verify", u),
            ("reject", u, rng.randrange(132), rng.randrange(6), rng.randrange(6)),
            ("solve", u, tuple(sorted(rng.sample(_w(u), 5)))),
            ("classify", u),
            ("derive", u, rng.choice(_through(u))),
            ("table",),
        ]
        rng.shuffle(rest)
        yield [("construct", u)] + rest


def cli_group_rounds(seed: int):
    rng = random.Random(seed)
    for u in _u_cycle(rng):
        l1, l2 = rng.sample(_through(u), 2)
        ops = [("aut", u), ("remark3", u, l1), ("remark3", u, l2)]
        rng.shuffle(ops)
        yield ops


def lib_solve_ops(seed: int):
    rng = random.Random(seed)
    for u in _u_cycle(rng):
        fives = list(combinations(_w(u), 5))
        rng.shuffle(fives)
        for five in fives:
            yield ("solve", u, five)
        yield ("verify", u)


# fixed operations at U = #4, run traced before the seeded ones, so that
# the counts the trace reports repeat exactly from run to run
REFERENCE = {
    "cli-design": [
        ("construct", REFERENCE_U),
        ("verify", REFERENCE_U),
        ("reject", REFERENCE_U, 0, 0, 0),
        ("solve", REFERENCE_U, tuple(_w(REFERENCE_U)[:5])),
        ("classify", REFERENCE_U),
        ("derive", REFERENCE_U, _through(REFERENCE_U)[0]),
        ("table",),
    ],
    "cli-group": [("aut", REFERENCE_U), ("remark3", REFERENCE_U, _through(REFERENCE_U)[0])],
    "lib-solve": [("solve", REFERENCE_U, five) for five in combinations(_w(REFERENCE_U), 5)]
    + [("verify", REFERENCE_U)],
}


def design_file(u: int) -> str:
    return f"design-{u}.json"


def tampered_file(u: int) -> str:
    return f"tampered-{u}.json"


def argv(op) -> list[str]:
    """The witt12 command line of a CLI operation, relative to the work dir."""
    kind, u = op[0], op[1] if len(op) > 1 else None
    fmt = ["--format", "structured"]
    if kind == "construct":
        return ["construct", "--u", f"#{u}", "--out", design_file(u)]
    if kind == "verify":
        return ["verify", *fmt, design_file(u)]
    if kind == "reject":
        return ["verify", *fmt, tampered_file(u)]
    if kind == "solve":
        return ["block", "--method", "solve", "--u", f"#{u}", *fmt, *(f"#{x}" for x in op[2])]
    if kind == "classify":
        return ["classify", "--witnesses", "--u", f"#{u}", *fmt]
    if kind == "derive":
        return ["derive", "--u", f"#{u}", "--line", f"#{op[2]}", *fmt]
    if kind == "table":
        return ["table", *fmt]
    if kind == "aut":
        return ["aut", "--u", f"#{u}", *fmt]
    if kind == "remark3":
        return ["remark3", "--u", f"#{u}", "--line", f"#{op[2]}", *fmt]
    raise ValueError(f"unknown operation {op!r}")


def tamper(data: bytes, op) -> bytes:
    """The design file with one point of one block replaced by another point of W."""
    _, u, i, j, r = op
    obj = json.loads(data)
    block = obj["blocks"][i]
    block[j] = sorted(set(_w(u)) - set(block))[r]
    block.sort()
    return (json.dumps(obj, indent=2) + "\n").encode()
