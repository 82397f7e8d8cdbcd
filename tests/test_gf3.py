"""Field and linear algebra tests.

The matrix routines back every geometric computation, so they get the
heaviest property coverage: rank-nullity (the rank is the pivot count
of rref), null space exactness, and the determinant's multiplicativity
and agreement with the Leibniz expansion, each against hand-rolled
checks rather than the code under test.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from witt12 import gf3
from witt12.gf3 import Mat


def residues():
    return st.integers(min_value=0, max_value=2)


def matrices(nrows, ncols):
    return st.lists(
        st.lists(residues(), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(Mat.from_rows)


def square_matrices(n):
    return matrices(n, n)


def _mat_mul(a, b):
    """Textbook row-by-column product, reduced mod 3."""
    cols = list(zip(*b.rows))
    return Mat(tuple(tuple(sum(x * y for x, y in zip(r, c)) % 3 for c in cols) for r in a.rows))


def _identity(n):
    return Mat(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def test_vector_helpers():
    assert gf3.dot((1, 2, 0), (2, 2, 1)) == 0
    with pytest.raises(ValueError):
        gf3.dot((1, 2), (1, 2, 0))


def test_mat_validation():
    with pytest.raises(ValueError):
        Mat.from_rows([[0, 1], [2]])  # ragged
    with pytest.raises(ValueError):
        Mat(((3, 0),))  # raw constructor insists on reduced entries
    with pytest.raises(ValueError):
        Mat.from_rows([])
    # from_rows reduces every entry
    assert Mat.from_rows([[4, -1, 9]]).rows == ((1, 2, 0),)


def test_mat_accessors():
    m = Mat.from_rows([[1, 2, 0], [0, 1, 1]])
    assert (m.nrows, m.ncols) == (2, 3)


@given(matrices(4, 5))
def test_rref_shape(m):
    r, pivots = gf3.rref(m)
    # pivot columns strictly increase and carry unit columns
    assert list(pivots) == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert r.rows[i][c] == 1
        assert all(r.rows[k][c] == 0 for k in range(r.nrows) if k != i)
    # rows below the pivots vanish
    for k in range(len(pivots), r.nrows):
        assert all(x == 0 for x in r.rows[k])


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_rank_nullity(nr, nc, data):
    m = data.draw(matrices(nr, nc))
    basis = gf3.null_space(m)
    assert len(gf3.rref(m)[1]) + len(basis) == nc


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_null_space_is_exact(nr, nc, data):
    m = data.draw(matrices(nr, nc))
    basis = gf3.null_space(m)
    for v in basis:
        assert all(gf3.dot(row, v) == 0 for row in m.rows)
    # deterministic shape: one basis vector per free column, marked by a 1
    _, pivots = gf3.rref(m)
    free = [c for c in range(nc) if c not in pivots]
    assert len(basis) == len(free)
    for v, c in zip(basis, free):
        assert v[c] == 1
        assert all(v[d] == 0 for d in free if d != c)


def test_null_space_spans_kernel_exhaustively():
    # small enough to enumerate the kernel outright
    m = Mat.from_rows([[1, 2, 0, 1], [0, 1, 1, 1]])
    basis = gf3.null_space(m)
    span = set()
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        v = (0,) * 4
        for c, b in zip(coeffs, basis):
            v = tuple((x + c * y) % 3 for x, y in zip(v, b))
        span.add(v)
    kernel = {
        v
        for v in itertools.product(range(3), repeat=4)
        if all(gf3.dot(row, v) == 0 for row in m.rows)
    }
    assert span == kernel


def test_null_space_of_zero_row():
    basis = gf3.null_space(Mat.from_rows([[0, 0, 0]]))
    assert tuple(basis) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_det_identity_and_singular():
    assert gf3.det(_identity(3)) == 1
    assert gf3.det(Mat.from_rows([[1, 2], [2, 1]])) == 0
    with pytest.raises(ValueError):
        gf3.det(Mat.from_rows([[1, 2, 0]]))


@given(square_matrices(3), square_matrices(3))
def test_det_multiplicative(a, b):
    assert gf3.det(_mat_mul(a, b)) == gf3.det(a) * gf3.det(b) % 3


@given(square_matrices(3))
def test_det_detects_rank(m):
    assert (gf3.det(m) != 0) == (len(gf3.rref(m)[1]) == 3)


def _leibniz(m):
    """Determinant as the signed sum over permutations, the textbook definition."""
    total = 0
    for perm in itertools.permutations(range(m.nrows)):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for i, j in enumerate(perm):
            term *= m.rows[i][j]
        total += term
    return total % 3


@given(st.integers(1, 5), st.data())
def test_det_against_leibniz(n, data):
    m = data.draw(square_matrices(n))
    assert gf3.det(m) == _leibniz(m)
