"""Field and linear algebra tests.

The matrix routines back every geometric computation, so they get the
heaviest property coverage: rank-nullity, null space exactness,
determinant multiplicativity, and solve/inverse consistency, each
against hand-rolled checks rather than the code under test.
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


def test_scalar_table_exhaustive():
    for a, b in itertools.product(range(3), repeat=2):
        assert gf3.add(a, b) == (a + b) % 3
        assert gf3.sub(a, b) == (a - b) % 3
        assert gf3.mul(a, b) == (a * b) % 3
    for a in range(3):
        assert gf3.neg(a) == (-a) % 3


def test_inverse():
    assert gf3.inv(1) == 1
    assert gf3.inv(2) == 2
    with pytest.raises(ZeroDivisionError):
        gf3.inv(0)


def test_scalar_reduces_arbitrary_integers():
    assert gf3.scalar(3) == 0
    assert gf3.scalar(-1) == 2
    assert gf3.scalar(7) == 1


def test_vector_helpers():
    assert gf3.vec([4, -1, 9]) == (1, 2, 0)
    assert gf3.vec_add((1, 2, 0), (2, 2, 1)) == (0, 1, 1)
    assert gf3.vec_scale(2, (1, 2, 0)) == (2, 1, 0)
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
    # from_rows coerces through vec
    assert Mat.from_rows([[4, -1, 9]]).rows == ((1, 2, 0),)


def test_mat_accessors():
    m = Mat.from_rows([[1, 2, 0], [0, 1, 1]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.column(1) == (2, 1)
    assert m.transpose().rows == ((1, 0), (2, 1), (0, 1))


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
    assert gf3.rank(m) + len(basis) == nc


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
            v = gf3.vec_add(v, gf3.vec_scale(c, b))
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
    assert gf3.det(gf3.identity(3)) == 1
    assert gf3.det(Mat.from_rows([[1, 2], [2, 1]])) == 0
    with pytest.raises(ValueError):
        gf3.det(Mat.from_rows([[1, 2, 0]]))


@given(square_matrices(3), square_matrices(3))
def test_det_multiplicative(a, b):
    assert gf3.det(gf3.mat_mul(a, b)) == gf3.mul(gf3.det(a), gf3.det(b))


@given(square_matrices(3))
def test_det_detects_rank(m):
    assert (gf3.det(m) != 0) == (gf3.rank(m) == 3)


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


def _brute_solvable(m, b):
    return any(
        all(gf3.dot(row, v) == t for row, t in zip(m.rows, b))
        for v in itertools.product(range(3), repeat=m.ncols)
    )


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_against_enumeration(nr, nc, data):
    m = data.draw(matrices(nr, nc))
    b = tuple(data.draw(residues()) for _ in range(nr))
    x = gf3.solve(m, b)
    if x is None:
        assert not _brute_solvable(m, b)
    else:
        assert all(gf3.dot(row, x) == t for row, t in zip(m.rows, b))


@given(square_matrices(3))
def test_mat_inv(m):
    if gf3.det(m) == 0:
        with pytest.raises(ValueError):
            gf3.mat_inv(m)
    else:
        assert gf3.mat_mul(m, gf3.mat_inv(m)) == gf3.identity(3)
        assert gf3.mat_mul(gf3.mat_inv(m), m) == gf3.identity(3)


def test_mat_inv_past_augmentation_cap():
    # a 5x5 inverse goes through one 5x10 augmented matrix, wider than any
    # system the construction itself eliminates
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    rows[0][4] = 2
    rows[3][1] = 1
    m = Mat.from_rows(rows)
    assert gf3.mat_mul(m, gf3.mat_inv(m)) == gf3.identity(5)


@given(st.integers(4, 6), st.data())
def test_mat_inv_round_trip(n, data):
    m = data.draw(square_matrices(n))
    if gf3.rank(m) < n:
        with pytest.raises(ValueError):
            gf3.mat_inv(m)
    else:
        inverse = gf3.mat_inv(m)
        assert gf3.mat_mul(m, inverse) == gf3.identity(n)
        assert gf3.mat_mul(inverse, m) == gf3.identity(n)


def test_vec_mat_row_action():
    m = Mat.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert gf3.vec_mat((1, 2, 0), m) == (0, 1, 2)
