"""Quadratic forms on GF(3)^3 and their point sets in the plane.

A form is the coefficient tuple (a00, a01, a02, a11, a12, a22) of
sum(a_ij x_i x_j) over i <= j.  Scaling a vector by 2 leaves the value
unchanged (2^2 = 1), so forms evaluate on projective points directly.
Each nonzero form splits the 13 points into three level sets; the
cardinality signature of that split identifies the form, up to doubling
the coefficients, with exactly one of four canonical shapes.

``point_values`` gives a form's value vector, its 13 values at once from
a per-point monomial table; every level-set question reads it, and
``design.construct`` computes it once per form.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Iterator, Sequence

from .checks import InvariantError, Record, require
from .gf3 import MOD
from .plane import PLANE, ProjLine, ProjPoint


class QuadraticForm(Record):
    coeffs: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 6:
            raise ValueError("a form has six coefficients")
        if any(c not in (0, 1, 2) for c in self.coeffs):
            raise ValueError("coefficients must be reduced scalars")

    @classmethod
    def of(cls, *coeffs: int) -> "QuadraticForm":
        return cls(tuple(c % MOD for c in coeffs))  # type: ignore[arg-type]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff_str(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def evaluate_vec(q: QuadraticForm, v: Sequence[int]) -> int:
    x0, x1, x2 = v
    a00, a01, a02, a11, a12, a22 = q.coeffs
    return (
        a00 * x0 * x0 + a01 * x0 * x1 + a02 * x0 * x2
        + a11 * x1 * x1 + a12 * x1 * x2 + a22 * x2 * x2
    ) % MOD


def evaluate(q: QuadraticForm, p: ProjPoint) -> int:
    return evaluate_vec(q, p.rep)


# the monomials x0^2, x0x1, x0x2, x1^2, x1x2, x2^2 at each point, reduced,
# in coefficient order: q(p) is the dot product of p's row with q
MONOMIALS = tuple(
    tuple(m % MOD for m in (x * x, x * y, x * z, y * y, y * z, z * z)) for x, y, z in (p.rep for p in PLANE.points)
)


def point_values(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The values of the nonzero form with these coefficients at the 13
    points, by index: its value vector."""
    if not any(coeffs):
        raise ValueError("the zero form has no meaningful level sets")
    a, b, c, d, e, f = coeffs
    return tuple(
        (a * m0 + b * m1 + c * m2 + d * m3 + e * m4 + f * m5) % MOD
        for m0, m1, m2, m3, m4, m5 in MONOMIALS
    )


def level_set(q: QuadraticForm, t: int) -> frozenset[ProjPoint]:
    """All points where q takes the value t; the zero form is rejected."""
    return frozenset(p for p, v in zip(PLANE.points, point_values(q.coeffs)) if v == t % MOD)


def signature(q: QuadraticForm) -> tuple[int, int, int]:
    values = point_values(q.coeffs)
    return values.count(0), values.count(1), values.count(2)


class QuadricType(Enum):
    CONIC = "conic"
    SINGLE_POINT = "single_point"
    LINE_PAIR = "line_pair"
    DOUBLE_LINE = "double_line"

    @property
    def canonical_label(self) -> str:
        return _CANONICAL[self][0]

    @property
    def canonical_shape(self) -> "QuadraticForm":
        return QuadraticForm(_CANONICAL[self][1])


_CANONICAL = {
    QuadricType.CONIC: ("x0^2 + x1^2 + x2^2", (1, 0, 0, 1, 0, 1)),
    QuadricType.SINGLE_POINT: ("x0^2 + x1^2", (1, 0, 0, 1, 0, 0)),
    QuadricType.LINE_PAIR: ("x0^2 - x1^2", (1, 0, 0, 2, 0, 0)),
    QuadricType.DOUBLE_LINE: ("x0^2", (1, 0, 0, 0, 0, 0)),
}

# level-set cardinality signatures; doubling a form swaps levels 1 and 2
_SIGNATURES = {
    (4, 3, 6): QuadricType.CONIC,
    (4, 6, 3): QuadricType.CONIC,
    (1, 6, 6): QuadricType.SINGLE_POINT,
    (7, 3, 3): QuadricType.LINE_PAIR,
    (4, 9, 0): QuadricType.DOUBLE_LINE,
    (4, 0, 9): QuadricType.DOUBLE_LINE,
}


def classify(q: QuadraticForm) -> QuadricType:
    sig = signature(q)
    kind = _SIGNATURES.get(sig)
    if kind is None:
        raise InvariantError(f"unexpected level-set signature {sig}")
    return kind


class ConicGeometry(Record):
    """A conic's four points, its tangents, and the induced point split."""

    form: QuadraticForm
    conic: tuple[ProjPoint, ...]
    tangents: tuple[ProjLine, ...]
    external: tuple[ProjPoint, ...]
    internal: tuple[ProjPoint, ...]


def conic_geometry(q: QuadraticForm) -> ConicGeometry:
    """Tangent-based split of the off-conic points, cross-checked against levels.

    A tangent meets the conic in exactly one point.  Off-conic points on
    at least one tangent are external (six of them), the rest internal
    (three); the two classes coincide with the nonzero level sets.
    """
    if classify(q) is not QuadricType.CONIC:
        raise ValueError("conic geometry needs a nondegenerate conic form")
    values = point_values(q.coeffs)
    conic_pts = tuple(p for p, v in zip(PLANE.points, values) if v == 0)
    conic_idx = {p.index for p in conic_pts}
    tangents = tuple(
        ln for ln in PLANE.lines if len(conic_idx.intersection(ln.points)) == 1
    )
    on_tangent = {i for ln in tangents for i in ln.points}
    external = tuple(
        p for p in PLANE.points if p.index not in conic_idx and p.index in on_tangent
    )
    internal = tuple(
        p for p in PLANE.points if p.index not in conic_idx and p.index not in on_tangent
    )
    require(len(conic_pts) == 4 and len(tangents) == 4, "a conic needs four tangents")
    require(len(external) == 6 and len(internal) == 3, "wrong external/internal split")
    levels = {frozenset(p for p, v in zip(PLANE.points, values) if v == t) for t in (1, 2)}
    require({frozenset(external), frozenset(internal)} == levels, "levels disagree")
    return ConicGeometry(q, conic_pts, tangents, external, internal)


class TableRow(Record):
    label: str
    form: QuadraticForm
    counts: tuple[int, int, int]


def canonical_table() -> tuple[TableRow, ...]:
    """Level-set counts for the four canonical forms, computed fresh."""
    return tuple(
        TableRow(t.canonical_label, t.canonical_shape, signature(t.canonical_shape))
        for t in QuadricType
    )


def all_nonzero_forms() -> Iterator[QuadraticForm]:
    """All 728 nonzero forms in lexicographic coefficient order."""
    for coeffs in product(range(MOD), repeat=6):
        if any(coeffs):
            yield QuadraticForm(coeffs)  # type: ignore[arg-type]


def representative_coeffs() -> Iterator[tuple[int, ...]]:
    """The coefficients of one form per {q, 2q} pair, in lexicographic
    order: those whose first nonzero entry is 1, the smaller of the two."""
    for k in range(5, -1, -1):
        for rest in product(range(MOD), repeat=5 - k):
            yield (0,) * k + (1,) + rest


def form_pair_representatives() -> tuple[QuadraticForm, ...]:
    """One representative per {q, 2q} pair: the lexicographically smaller."""
    return tuple(map(QuadraticForm, representative_coeffs()))
