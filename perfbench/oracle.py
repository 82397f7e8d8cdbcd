"""Independent reference model of PG(2,3) and S(5,6,12), plus output checks.

Nothing here imports witt12: the benchmark judges the program's outputs
against a model rebuilt from the definition in the paper.  Points are the
nonzero vectors of GF(3)^3 up to scalars, normalised so the first nonzero
coordinate is 1 and sorted; line k has dual vector equal to point k's
coordinates.  For a removed point U the blocks are the six-point sets
{X != U : q(X) = 2 q(U)} over all nonzero quadratic forms q.

Each ``check_*`` function returns None when an output is correct and a
short reason string when it is not.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations, product
from math import comb

MOD = 3
V, K, T = 12, 6, 5
GROUP_ORDER = 12 * 11 * 10 * 9 * 8
STABILIZER_ORDER = 432
REMARK3_AFFINITIES = 432
REMARK3_CHECKS = 1296
# block census by witness kind; the same for every U (the plane's
# collineation group is transitive on points)
CENSUS = {"conic_exterior": 54, "line_pair_minus_u": 42, "symmetric_difference": 36}
FORMAT_TAG = "witt12-design-v1"


def _normalize(v):
    lead = next(c for c in v if c % MOD)
    s = 1 if lead % MOD == 1 else 2
    return tuple((s * c) % MOD for c in v)


POINTS = tuple(sorted({_normalize(v) for v in product(range(MOD), repeat=3) if any(v)}))
COORDS = tuple(":".join(str(c) for c in p) for p in POINTS)
LINES = tuple(
    tuple(i for i, p in enumerate(POINTS) if sum(a * b for a, b in zip(d, p)) % MOD == 0)
    for d in POINTS
)


def evaluate(coeffs, p) -> int:
    a00, a01, a02, a11, a12, a22 = coeffs
    x0, x1, x2 = p
    return (
        a00 * x0 * x0 + a01 * x0 * x1 + a02 * x0 * x2
        + a11 * x1 * x1 + a12 * x1 * x2 + a22 * x2 * x2
    ) % MOD


def block_of(coeffs, u: int) -> tuple[int, ...]:
    target = (2 * evaluate(coeffs, POINTS[u])) % MOD
    return tuple(i for i in range(len(POINTS)) if i != u and evaluate(coeffs, POINTS[i]) == target)


def lambda_cascade() -> list[int]:
    return [comb(V - i, T - i) // comb(K - i, T - i) for i in range(T + 1)]


class Design:
    """The blocks for one removed point U, in global and local numbering."""

    def __init__(self, u: int) -> None:
        self.u = u
        self.w = tuple(i for i in range(len(POINTS)) if i != u)
        found = set()
        for coeffs in product(range(MOD), repeat=6):
            if any(coeffs):
                b = block_of(coeffs, u)
                if len(b) == K:
                    found.add(b)
        self.blocks = frozenset(found)
        self.five = {s: b for b in self.blocks for s in combinations(b, T)}
        if len(self.blocks) != 132 or len(self.five) != comb(V, T):
            raise RuntimeError(f"reference model is not S(5,6,12) at U = #{u}")
        pos = {x: i for i, x in enumerate(self.w)}
        self.local_blocks = frozenset(tuple(sorted(pos[x] for x in b)) for b in self.blocks)

    def lines_through_u(self) -> tuple[int, ...]:
        return tuple(k for k, ln in enumerate(LINES) if self.u in ln)

    def block_through(self, five) -> tuple[int, ...]:
        return self.five[tuple(sorted(five))]


def reference_designs() -> dict[int, Design]:
    return {u: Design(u) for u in range(len(POINTS))}


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_construct(d: Design, rc: int, data: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(data)
    if not isinstance(obj, dict):
        return "design file is not a JSON object"
    if obj.get("format") != FORMAT_TAG or obj.get("points") != list(COORDS) or obj.get("u") != d.u:
        return "design file frame is wrong"
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != 132:
        return "design file does not hold 132 blocks"
    cover = Counter(s for b in blocks for s in combinations(sorted(b), T))
    if len(cover) != comb(V, T) or set(cover.values()) != {1} or any(
        x == d.u for s in cover for x in s
    ):
        return "some 5-subset of W is not covered exactly once"
    if {tuple(sorted(b)) for b in blocks} != d.blocks:
        return "blocks differ from the reference design"
    if not isinstance(obj.get("classes"), list) or len(obj["classes"]) != 132:
        return "classes do not parallel blocks"
    return None


def check_verify(rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"accepting verify exited {rc}"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "accepting verify printed no JSON report"
    if obj.get("design") != [T, V, K, 1] or obj.get("lambda_cascade") != lambda_cascade():
        return "wrong design parameters"
    if obj.get("witnesses_ok") is not True:
        return "witnesses not confirmed"
    return None


def check_reject(rc: int, out: bytes) -> tuple[str | None, bool]:
    """Returns (failure, stdout parses as JSON)."""
    parsed = _json(out) is not None
    if rc != 1:
        return f"rejecting verify exited {rc}", parsed
    if not parsed and b"VIOLATION" not in out:
        return "rejecting verify named no violation", parsed
    return None, parsed


def check_solve(d: Design, five, rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "no JSON report"
    block = tuple(obj.get("block") or ())
    if not set(five) <= set(block) or block != d.block_through(five):
        return f"block {block} is not the block through {five}"
    case, det, form = obj.get("case"), obj.get("determinant"), obj.get("form")
    if (case, det == 0) not in (("A", False), ("B", True)):
        return f"case {case} disagrees with determinant {det}"
    if not isinstance(form, list) or len(form) != 6 or block_of(form, d.u) != block:
        return "witness form does not cut out the block"
    return None


def check_classify(d: Design, rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "no JSON report"
    if obj.get("census") != CENSUS or obj.get("total") != 132:
        return f"census {obj.get('census')}"
    rows = obj.get("blocks")
    if not isinstance(rows, list) or {tuple(r["block"]) for r in rows} != d.blocks:
        return "witness list does not match the blocks"
    if dict(Counter(r["kind"] for r in rows)) != CENSUS:
        return "witness kinds disagree with the census"
    return None


def check_derive(d: Design, line: int, rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "no JSON report"
    fixed = [x for x in LINES[line] if x != d.u]
    if obj.get("line") != line or obj.get("fixed") != fixed:
        return "wrong line or fixed points"
    if obj.get("design") != [2, 9, 3, 1] or obj.get("equals_affine_residue") is not True:
        return "derived design is not the affine plane of order 3"
    return None


def check_table(rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(out)
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not isinstance(rows, list) or len(rows) != 4:
        return "table does not hold four rows"
    for r in rows:
        counts = [0, 0, 0]
        for p in POINTS:
            counts[evaluate(r["coeffs"], p)] += 1
        if r.get("counts") != counts:
            return f"level-set counts of {r.get('form')} are wrong"
    return None


def check_aut(d: Design, rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "no JSON report"
    if obj.get("order") != GROUP_ORDER or obj.get("sharply_5_transitive") is not True:
        return "group order or transitivity wrong"
    if obj.get("stabilizer_collineations") != STABILIZER_ORDER or obj.get(
        "stabilizer_induced"
    ) != STABILIZER_ORDER:
        return "stabilizer of U is not 432/432"
    gens = obj.get("generators")
    if not isinstance(gens, list) or not gens:
        return "no generators"
    for g in gens:
        if sorted(g) != list(range(V)):
            return f"generator {g} is not a permutation"
        if any(tuple(sorted(g[x] for x in b)) not in d.local_blocks for b in d.local_blocks):
            return f"generator {g} does not map blocks to blocks"
    return None


def check_remark3(line: int, rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "no JSON report"
    if obj.get("line") != line or obj.get("affinities") != REMARK3_AFFINITIES:
        return "wrong line or affinity count"
    if obj.get("checks") != REMARK3_CHECKS or obj.get("failures") != 0:
        return f"{obj.get('failures')} failures in {obj.get('checks')} checks"
    return None
