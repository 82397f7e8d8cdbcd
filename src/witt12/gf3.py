"""Exact arithmetic over GF(3) and a small dense linear-algebra kernel.

Scalars are the canonical residues 0, 1, 2 stored as plain ints; every
operation reduces eagerly, so equality of values is equality of ints.
Vectors are tuples of scalars.  Matrices are immutable dense row grids
of any size.  One Gauss-Jordan elimination backs every routine here:
rref, det and null space.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .checks import Record

MOD = 3

Vec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum(a * b for a, b in zip(u, v)) % MOD


class Mat(Record):
    """Dense matrix over GF(3): a rectangular grid of reduced scalars."""

    rows: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")
        if any(x not in (0, 1, 2) for r in self.rows for x in r):
            raise ValueError("entries must be reduced scalars 0, 1, 2")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Mat":
        return cls(tuple(tuple(x % MOD for x in r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])


def _eliminate(m: Mat) -> tuple[tuple[Vec, ...], tuple[int, ...], int]:
    """Gauss-Jordan elimination: reduced rows, ascending pivot columns, and
    the product of the pivots met, negated once per row swap (the
    determinant when a square matrix has a pivot in every column)."""
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            d = -d
        piv = rows[r][c]  # 1 or 2, each its own inverse
        d = (d * piv) % MOD
        rows[r] = [(piv * x) % MOD for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % MOD for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots), d


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the ascending pivot columns."""
    rows, pivots, _ = _eliminate(m)
    return Mat(rows), pivots


def det(m: Mat) -> int:
    """Determinant: the signed pivot product, or 0 when a column has no pivot."""
    if m.nrows != m.ncols:
        raise ValueError("determinant needs a square matrix")
    _, pivots, d = _eliminate(m)
    return d if len(pivots) == m.ncols else 0


def null_space(m: Mat) -> list[Vec]:
    """Deterministic basis of the right null space.

    One basis vector per free column, free columns taken in ascending
    order; the vector has 1 in its own free column, 0 in the other free
    columns, and the forced values in the pivot columns.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis: list[Vec] = []
    for f in free:
        v = [0] * m.ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red.rows[r][f]) % MOD
        basis.append(tuple(v))
    return basis
