"""Exact arithmetic over GF(3) and a small dense linear-algebra kernel.

Scalars are the canonical residues 0, 1, 2 stored as plain ints; every
operation reduces eagerly, so equality of values is equality of ints.
Vectors are tuples of scalars.  Matrices are immutable dense row grids
of any size.  One Gauss-Jordan elimination backs every routine here:
rref, rank, det, null space, solve and inverse.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .checks import Record

MOD = 3

Vec = tuple[int, ...]


def scalar(x: int) -> int:
    """Canonical residue of an arbitrary integer."""
    return x % MOD


def add(a: int, b: int) -> int:
    return (a + b) % MOD


def sub(a: int, b: int) -> int:
    return (a - b) % MOD


def mul(a: int, b: int) -> int:
    return (a * b) % MOD


def neg(a: int) -> int:
    return (-a) % MOD


def inv(x: int) -> int:
    """Multiplicative inverse of a nonzero scalar; 1 and 2 are self-inverse."""
    r = x % MOD
    if r == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(3)")
    return r


def vec(values: Iterable[int]) -> Vec:
    return tuple(x % MOD for x in values)


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple((a + b) % MOD for a, b in zip(u, v))


def vec_scale(c: int, v: Sequence[int]) -> Vec:
    return tuple((c * x) % MOD for x in v)


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
        return cls(tuple(vec(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def column(self, c: int) -> Vec:
        return tuple(r[c] for r in self.rows)

    def transpose(self) -> "Mat":
        return Mat(tuple(self.column(c) for c in range(self.ncols)))


def identity(n: int) -> Mat:
    return Mat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError("inner dimension mismatch")
    return Mat(
        tuple(
            tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)) % MOD
                  for j in range(b.ncols))
            for i in range(a.nrows)
        )
    )


def vec_mat(v: Sequence[int], m: Mat) -> Vec:
    """Row vector times matrix."""
    if len(v) != m.nrows:
        raise ValueError("vector length mismatch")
    return tuple(sum(v[i] * m.rows[i][j] for i in range(m.nrows)) % MOD
                 for j in range(m.ncols))


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
        d = (d * rows[r][c]) % MOD
        pinv = inv(rows[r][c])
        rows[r] = [(pinv * x) % MOD for x in rows[r]]
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


def rank(m: Mat) -> int:
    return len(_eliminate(m)[1])


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


def solve(m: Mat, rhs: Sequence[int]) -> Vec | None:
    """One solution of m x = rhs (free variables set to 0), or None."""
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side length mismatch")
    aug = Mat.from_rows([list(r) + [b] for r, b in zip(m.rows, rhs)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def mat_inv(m: Mat) -> Mat:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse needs a square matrix")
    n = m.nrows
    aug = Mat.from_rows([list(r) + [1 if i == j else 0 for j in range(n)]
                         for i, r in enumerate(m.rows)])
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Mat(tuple(r[n:] for r in red.rows))
