"""Construction of the 132 blocks and the block solver.

Fix a point U of the plane and let W be the other twelve points.  Each
nonzero quadratic form q contributes the candidate set of points X in W
with q(X) = 2 q(U); whenever that set has more than three points it is a
block, it then has exactly six points, and the blocks form a Steiner
system S(5, 6, 12) on W.  Every block falls into exactly one of three
shapes, each carrying a re-derivable witness:

* exterior points of a conic whose interior contains U,
* symmetric difference of two lines whose common point is not U and
  which both avoid U,
* union of two lines through U with U removed.

A witness is its JSON object, in memory as in a design file: its kind,
then the six coefficients of the conic's form or the duals of the two
lines.  ``rederive_block`` is the one reader of its kind, ``shaped_witness``
the one check of its fields' shape, for a file and a library caller alike.

The solver finds the unique block through five given points of W from
the five linear conditions q(d) = 2 q(U) on the six coefficients of q,
without consulting the constructed block list.  The lookup reads the
sixth-point table (checks.completion_table) the automorphisms force with.
"""

from __future__ import annotations

from typing import Any, Iterable

from .checks import IncidenceStructure, InvariantError, Record, completion_table, require
from .gf3 import MOD, Mat, det, null_space
from .plane import PLANE, ProjPoint
from .quadrics import MONOMIALS, QuadraticForm, conic_geometry, evaluate, point_values, representative_coeffs

DEFAULT_U_INDEX = 4  # the point 1:0:0
DEFAULT_U = PLANE.points[DEFAULT_U_INDEX]

Block = tuple[int, ...]

KIND_CONIC = "conic_exterior"
KIND_SYMDIFF = "symmetric_difference"
KIND_LINEPAIR = "line_pair_minus_u"


class WittModel(Record):
    u: ProjPoint
    w: tuple[int, ...]
    w_position: dict[int, int]
    blocks: tuple[Block, ...]
    classes: tuple[dict[str, Any], ...]  # the witness objects
    sixth: dict[int, int]  # five W positions as a bitmask -> the sixth point of their block
    local_blocks: tuple[tuple[int, ...], ...]

    # compared by identity: a model is an lru_cache key, and its dict
    # fields are unhashable
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # the dict fields drown the useful part
        return f"WittModel(u={self.u}, blocks={len(self.blocks)})"


def _candidate(values: tuple[int, ...], u: int) -> Block | None:
    """The points X != U with q(X) = 2 q(U), read off q's value vector,
    or None when they are too few to be a block."""
    target = 2 * values[u] % MOD
    members = tuple(i for i, v in enumerate(values) if v == target and i != u)
    if len(members) <= 3:
        return None
    # sizes 4, 5, or 7+ would break the construction; they never occur
    require(len(members) == 6, f"candidate set of size {len(members)}")
    return members


def block_of_form(q: QuadraticForm, u: ProjPoint = DEFAULT_U) -> Block | None:
    """Candidate point set of q, or None when it is too small to be a block."""
    if q.is_zero():
        raise ValueError("the zero form defines no block")
    return _candidate(point_values(q.coeffs), u.index)


def _classify_from_form(
    u: ProjPoint, block: Block, coeffs: tuple[int, ...], values: tuple[int, ...]
) -> dict[str, Any]:
    """The witness object of a block, read off the zero set of its form
    and proved by re-deriving the block from it."""
    zero = {i for i, v in enumerate(values) if v == 0}
    if values[u.index] == 0:
        # U lies on the zero set, which must be a pair of lines through U
        pair = tuple(ln for ln in PLANE.lines if zero.issuperset(ln.points))
        require(len(pair) == 2, "the zero set through U is not a line pair")
        witness = {"kind": KIND_LINEPAIR, "lines": [ln.coord_str() for ln in pair]}
    elif len(zero) == 4:
        witness = {"kind": KIND_CONIC, "form": list(coeffs)}
    else:
        require(len(zero) == 1, f"zero set of size {len(zero)}")
        (center,) = zero
        bset = set(block)
        pair = tuple(
            ln
            for ln in PLANE.lines_through(PLANE.points[center])
            if len(bset.intersection(ln.points)) == 3
        )
        require(len(pair) == 2, "no line pair through the centre")
        witness = {"kind": KIND_SYMDIFF, "lines": [ln.coord_str() for ln in pair]}
    try:
        rederived = rederive_block(witness, u)
    except ValueError as e:
        raise InvariantError(str(e)) from None
    require(rederived == block, "the witness does not re-derive the block")
    return witness


def construct(u: ProjPoint = DEFAULT_U) -> WittModel:
    """Build the design for the given removed point (default 1:0:0)."""
    found: dict[Block, tuple] = {}
    for coeffs in representative_coeffs():
        values = point_values(coeffs)
        b = _candidate(values, u.index)
        if b is not None:
            # each block has a unique witness form up to doubling
            require(b not in found, "a block with two witness forms")
            found[b] = coeffs, values
    blocks = tuple(sorted(found))
    require(len(blocks) == 132, "the design does not have 132 blocks")
    classes = tuple(_classify_from_form(u, b, *found[b]) for b in blocks)
    w = tuple(p.index for p in PLANE.points if p.index != u.index)
    w_position = {pt: i for i, pt in enumerate(w)}
    local_blocks = tuple(tuple(w_position[x] for x in b) for b in blocks)
    return WittModel(
        u=u,
        w=w,
        w_position=w_position,
        blocks=blocks,
        classes=classes,
        sixth=completion_table(local_blocks, 12, 5),
        local_blocks=local_blocks,
    )


def is_int(x: Any) -> bool:
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def shaped_witness(obj: dict[str, Any]) -> dict[str, Any]:
    """A witness object in a constructed one's key order (kind, then form or
    lines), without nulls or other keys; ValueError when a field is misshapen."""
    shaped = {"kind": obj.get("kind")}
    shaped.update((k, obj[k]) for k in ("form", "lines") if obj.get(k) is not None)
    form, lines = shaped.get("form"), shaped.get("lines")
    if form is not None and (not isinstance(form, list) or not all(is_int(c) for c in form)):
        raise ValueError("form must be a list of ints")
    if lines is not None and (
        not isinstance(lines, list) or len(lines) != 2 or not all(isinstance(s, str) for s in lines)
    ):
        raise ValueError("lines must be two coordinate strings")
    return shaped


def rederive_block(obj: Any, u: ProjPoint) -> Block:
    """Recompute a block from its witness object alone; ValueError when
    the object names no witness of a block for U."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in (KIND_CONIC, KIND_SYMDIFF, KIND_LINEPAIR):
        raise ValueError(f"unknown class kind {kind!r}")
    obj = shaped_witness(obj)
    if kind == KIND_CONIC:
        if "form" not in obj:
            raise ValueError("conic record without a form")
        geo = conic_geometry(QuadraticForm.of(*obj["form"]))
        if u not in geo.internal:
            raise ValueError("witness conic does not have U as an internal point")
        return tuple(sorted(p.index for p in geo.external))
    if "lines" not in obj:
        raise ValueError(f"{kind} record without lines")
    g, h = (PLANE.parse_line(s) for s in obj["lines"])
    if g.index == h.index:
        raise ValueError("witness lines must be distinct")
    if kind == KIND_SYMDIFF:
        if u.index in set(g.points) | set(h.points):
            raise ValueError("witness lines must avoid U")
        return tuple(sorted(set(g.points) ^ set(h.points)))
    union = set(g.points) | set(h.points)
    if u.index not in union:
        raise ValueError("witness line pair must pass through U")
    return tuple(sorted(union - {u.index}))


def validated_five(d: Iterable[int], u: ProjPoint) -> tuple[int, ...]:
    pts = tuple(sorted(d))
    if len(pts) != 5:
        raise ValueError("expected five points")
    if len(set(pts)) != 5:
        raise ValueError("the five points must be distinct")
    if any(not 0 <= x < len(PLANE.points) for x in pts):
        raise ValueError("point index out of range")
    if u.index in pts:
        raise ValueError("the removed point U cannot lie in a block")
    return pts


def block_through(m: WittModel, d: Iterable[int]) -> Block:
    """The unique block containing five given points of W (by lookup)."""
    pts = validated_five(d, m.u)
    x = m.sixth[sum(1 << m.w_position[p] for p in pts)]
    return tuple(sorted((*pts, m.w[x])))


class BlockSolution(Record):
    """Solver outcome: the block, its witness form, and the case certificate.

    case "A": every solution of the linear system has q(U) != 0; the
    certificate determinant is nonzero and the solution space is a line.
    case "B": some nonzero solution has q(U) = 0; its zero set is a pair
    of lines through U and the determinant is 0.
    """

    case: str
    block: Block
    form: QuadraticForm
    dimension: int
    determinant: int


def solve_block_through(d: Iterable[int], u: ProjPoint = DEFAULT_U) -> BlockSolution:
    """Find the block through five points by solving for the form directly.

    Each point contributes one condition q(d_k) - 2 q(U) = 0, linear in
    the six coefficients; -2 = 1, so the coefficient of a_ij is
    d_i d_j + u_i u_j.  The case split appends the condition q(U) = 0:
    if the stacked system has a nonzero solution, that solution cuts a
    line pair through U (case B); otherwise the 5x6 system has a unique
    projective solution with q(U) != 0 (case A).
    """
    pts = validated_five(d, u)
    urow = MONOMIALS[u.index]
    rows = [tuple((a + b) % MOD for a, b in zip(MONOMIALS[i], urow)) for i in pts]
    system = Mat.from_rows(rows)
    stacked = Mat.from_rows(rows + [list(urow)])
    if u.index == DEFAULT_U_INDEX:
        # for U = 1:0:0 the condition q(U) = 0 is just a00 = 0, so the
        # certificate is the 5x5 determinant over the remaining columns
        cert = Mat.from_rows([r[1:] for r in rows])
    else:
        cert = stacked
    determinant = det(cert)
    kernel_stacked = null_space(stacked)
    kernel = null_space(system)
    dimension = len(kernel)
    if kernel_stacked:
        form = QuadraticForm(kernel_stacked[0])
        require(evaluate(form, u) == 0 and determinant == 0, "case B certificate fails")
        case = "B"
    else:
        require(dimension == 1, f"case A kernel of dimension {dimension}")
        form = QuadraticForm(kernel[0])
        require(evaluate(form, u) != 0 and determinant != 0, "case A certificate fails")
        case = "A"
    block = block_of_form(form, u)
    require(block is not None and set(pts) <= set(block), "block misses a point")
    return BlockSolution(case, block, form, dimension, determinant)


def as_incidence_structure(m: WittModel) -> IncidenceStructure:
    return IncidenceStructure(m.w, m.blocks)
