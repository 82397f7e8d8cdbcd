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

The solver finds the unique block through five given points of W from
the five linear conditions q(d) = 2 q(U) on the six coefficients of q,
without consulting the constructed block list.
"""

from __future__ import annotations

from typing import Iterable, Union

from .checks import IncidenceStructure, Record, require
from .gf3 import MOD, Mat, det, null_space
from .plane import PLANE, ProjLine, ProjPoint
from .quadrics import (
    QuadraticForm,
    conic_geometry,
    evaluate,
    form_pair_representatives,
    level_set,
)

DEFAULT_U_INDEX = 4  # the point 1:0:0
DEFAULT_U = PLANE.points[DEFAULT_U_INDEX]

Block = tuple[int, ...]


class ConicExterior(Record):
    """Block = external points of the witness conic; U is internal."""

    form: QuadraticForm


class SymmetricDifference(Record):
    """Block = symmetric difference of two lines, both avoiding U."""

    lines: tuple[ProjLine, ProjLine]


class LinePairMinusU(Record):
    """Block = union of two lines through U, with U removed."""

    lines: tuple[ProjLine, ProjLine]


BlockClass = Union[ConicExterior, SymmetricDifference, LinePairMinusU]


class WittModel(Record):
    u: ProjPoint
    w: tuple[int, ...]
    w_position: dict[int, int]
    blocks: tuple[Block, ...]
    classes: tuple[BlockClass, ...]
    block_position: dict[Block, int]
    sixth: dict[int, int]
    local_blocks: tuple[tuple[int, ...], ...]
    local_blockset: frozenset[tuple[int, ...]]

    # compared by identity: a model is an lru_cache key, and its dict
    # fields are unhashable
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # the dict fields drown the useful part
        return f"WittModel(u={self.u}, blocks={len(self.blocks)})"


def block_of_form(q: QuadraticForm, u: ProjPoint = DEFAULT_U) -> Block | None:
    """Candidate point set of q, or None when it is too small to be a block."""
    if q.is_zero():
        raise ValueError("the zero form defines no block")
    target = (2 * evaluate(q, u)) % MOD
    members = tuple(
        p.index
        for p in PLANE.points
        if p.index != u.index and evaluate(q, p) == target
    )
    if len(members) <= 3:
        return None
    # sizes 4, 5, or 7+ would break the construction; they never occur
    require(len(members) == 6, f"candidate set of size {len(members)}")
    return members


def _classify_from_form(q: QuadraticForm, u: ProjPoint, block: Block) -> BlockClass:
    bset = set(block)
    if evaluate(q, u) == 0:
        # U lies on the zero set, which must be a pair of lines through U
        zero = {p.index for p in level_set(q, 0)}
        pair = tuple(ln for ln in PLANE.lines if set(ln.points) <= zero)
        require(len(pair) == 2, "the zero set through U is not a line pair")
        union = set(pair[0].points) | set(pair[1].points)
        require(union == bset | {u.index}, "the line pair is not the block plus U")
        return LinePairMinusU(pair)
    zero = level_set(q, 0)
    if len(zero) == 4:
        geo = conic_geometry(q)
        require(u in geo.internal, "U is not internal to the conic")
        require({p.index for p in geo.external} == bset, "block is not the exterior")
        return ConicExterior(q)
    require(len(zero) == 1, f"zero set of size {len(zero)}")
    center = next(iter(zero))
    pair = tuple(
        ln
        for ln in PLANE.lines_through(center)
        if len(bset.intersection(ln.points)) == 3
    )
    require(len(pair) == 2, "no line pair through the centre")
    first, second = set(pair[0].points), set(pair[1].points)
    require(first ^ second == bset, "block is not the symmetric difference")
    require(u.index not in first | second, "U lies on the line pair")
    return SymmetricDifference(pair)


def construct(u: ProjPoint = DEFAULT_U) -> WittModel:
    """Build the design for the given removed point (default 1:0:0)."""
    found: dict[Block, QuadraticForm] = {}
    for q in form_pair_representatives():
        b = block_of_form(q, u)
        if b is not None:
            # each block has a unique witness form up to doubling
            require(b not in found, "a block with two witness forms")
            found[b] = q
    blocks = tuple(sorted(found))
    require(len(blocks) == 132, "the design does not have 132 blocks")
    classes = tuple(_classify_from_form(found[b], u, b) for b in blocks)
    w = tuple(p.index for p in PLANE.points if p.index != u.index)
    w_position = {pt: i for i, pt in enumerate(w)}
    local_blocks = tuple(tuple(w_position[x] for x in b) for b in blocks)
    # sixth[bitmask of five W positions] is the sixth point of their block
    sixth: dict[int, int] = {}
    for b in local_blocks:
        for x in b:
            key = sum(1 << y for y in b if y != x)
            require(key not in sixth, "a 5-set inside two blocks")
            sixth[key] = x
    require(len(sixth) == 792, "a 5-set of W is uncovered")  # C(12,5) = 792
    return WittModel(
        u=u,
        w=w,
        w_position=w_position,
        blocks=blocks,
        classes=classes,
        block_position={b: i for i, b in enumerate(blocks)},
        sixth=sixth,
        local_blocks=local_blocks,
        local_blockset=frozenset(local_blocks),
    )


def classify_block(m: WittModel, b: Iterable[int]) -> BlockClass:
    key = tuple(sorted(b))
    pos = m.block_position.get(key)
    if pos is None:
        raise ValueError(f"{key} is not a block of this design")
    return m.classes[pos]


def rederive_block(cls_: BlockClass, u: ProjPoint) -> Block:
    """Recompute a block from its class witness alone."""
    if isinstance(cls_, ConicExterior):
        geo = conic_geometry(cls_.form)
        if u not in geo.internal:
            raise ValueError("witness conic does not have U as an internal point")
        return tuple(sorted(p.index for p in geo.external))
    if isinstance(cls_, SymmetricDifference):
        r, s = cls_.lines
        if r.index == s.index:
            raise ValueError("witness lines must be distinct")
        if u.index in set(r.points) | set(s.points):
            raise ValueError("witness lines must avoid U")
        return tuple(sorted(set(r.points) ^ set(s.points)))
    if isinstance(cls_, LinePairMinusU):
        g, h = cls_.lines
        if g.index == h.index:
            raise ValueError("witness lines must be distinct")
        union = set(g.points) | set(h.points)
        if u.index not in union:
            raise ValueError("witness line pair must pass through U")
        return tuple(sorted(union - {u.index}))
    raise TypeError(f"unknown block class {cls_!r}")


def _validated_five(d: Iterable[int], u: ProjPoint) -> tuple[int, ...]:
    pts = tuple(sorted(d))
    if len(pts) != 5 or len(set(pts)) != 5:
        raise ValueError("expected five distinct points")
    if any(not 0 <= x < len(PLANE.points) for x in pts):
        raise ValueError("point index out of range")
    if u.index in pts:
        raise ValueError("the removed point U cannot lie in a block")
    return pts


def block_through(m: WittModel, d: Iterable[int]) -> Block:
    """The unique block containing five given points of W (by lookup)."""
    pts = _validated_five(d, m.u)
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


def _quad_row(v: tuple[int, int, int]) -> tuple[int, ...]:
    x0, x1, x2 = v
    return (
        x0 * x0 % MOD, x0 * x1 % MOD, x0 * x2 % MOD,
        x1 * x1 % MOD, x1 * x2 % MOD, x2 * x2 % MOD,
    )


def solve_block_through(d: Iterable[int], u: ProjPoint = DEFAULT_U) -> BlockSolution:
    """Find the block through five points by solving for the form directly.

    Each point contributes one condition q(d_k) - 2 q(U) = 0, linear in
    the six coefficients; -2 = 1, so the coefficient of a_ij is
    d_i d_j + u_i u_j.  The case split appends the condition q(U) = 0:
    if the stacked system has a nonzero solution, that solution cuts a
    line pair through U (case B); otherwise the 5x6 system has a unique
    projective solution with q(U) != 0 (case A).
    """
    pts = _validated_five(d, u)
    urow = _quad_row(u.rep)
    rows = [
        tuple((a + b) % MOD for a, b in zip(_quad_row(PLANE.points[i].rep), urow))
        for i in pts
    ]
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
