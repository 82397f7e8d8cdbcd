"""Projective plane tests.

The canonical point order is frozen here from an independent
enumeration (normalize all 26 nonzero vectors, deduplicate, sort), so a
regression in the plane builder cannot silently reorder the indices the
rest of the package depends on.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from witt12 import gf3
from witt12.plane import PLANE, collinear, collinear_triple_in, normalize

EXPECTED_POINT_ORDER = (
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (0, 1, 2),
    (1, 0, 0),
    (1, 0, 1),
    (1, 0, 2),
    (1, 1, 0),
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 0),
    (1, 2, 1),
    (1, 2, 2),
)


def nonzero_vectors():
    return st.tuples(*[st.integers(0, 2)] * 3).filter(lambda v: any(v))


def test_point_order_matches_independent_enumeration():
    seen = sorted(
        {
            normalize(v)
            for v in itertools.product(range(3), repeat=3)
            if any(v)
        }
    )
    assert tuple(seen) == EXPECTED_POINT_ORDER
    assert tuple(p.rep for p in PLANE.points) == EXPECTED_POINT_ORDER
    assert tuple(l.dual for l in PLANE.lines) == EXPECTED_POINT_ORDER


def test_counts():
    assert len(PLANE.points) == 13
    assert len(PLANE.lines) == 13
    for ln in PLANE.lines:
        assert len(ln.points) == 4
    for p in PLANE.points:
        assert len(PLANE.lines_through(p)) == 4


@given(nonzero_vectors())
def test_normalize_leading_one(v):
    w = normalize(v)
    first = next(x for x in w if x)
    assert first == 1
    assert normalize(w) == w


@given(nonzero_vectors(), st.sampled_from([1, 2]))
def test_normalize_scale_invariant(v, c):
    assert normalize(gf3.vec_scale(c, v)) == normalize(v)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize((0, 0, 0))


def test_incidence_is_orthogonality():
    for p in PLANE.points:
        for ln in PLANE.lines:
            assert PLANE.incident(p, ln) == (gf3.dot(p.rep, ln.dual) == 0)


def test_line_through_every_pair():
    for p, q in itertools.combinations(PLANE.points, 2):
        ln = PLANE.line_through(p, q)
        assert p.index in ln.points and q.index in ln.points
        others = [
            m
            for m in PLANE.lines
            if p.index in m.points and q.index in m.points
        ]
        assert others == [ln]


def test_line_through_rejects_equal_points():
    with pytest.raises(ValueError):
        PLANE.line_through(PLANE.points[3], PLANE.points[3])


def test_parse_point():
    assert PLANE.parse_point("#3").rep == (0, 1, 2)
    assert PLANE.parse_point("0:1:2").index == 3
    assert PLANE.parse_point("0:2:1").index == 3  # scalar multiple
    for bad in ("#13", "#-1", "0:0:0", "abc", "1:2", "1:2:3:4", "1:x:2"):
        with pytest.raises(ValueError):
            PLANE.parse_point(bad)


def test_parse_line():
    ln = PLANE.parse_line("1:0:0")
    assert ln.dual == (1, 0, 0)
    assert ln.points == tuple(
        p.index for p in PLANE.points if p.rep[0] == 0
    )
    assert PLANE.parse_line("#3").dual == (0, 1, 2)
    assert PLANE.parse_line("0:2:1").index == 3  # scalar multiple
    for bad in ("#13", "#-1", "0:0:0", "abc", "1:2", "1:2:3:4", "1:x:2"):
        with pytest.raises(ValueError):
            PLANE.parse_line(bad)


def test_collinear():
    p = PLANE.points
    assert collinear(p[0], p[1], p[2])  # all on x0 = 0
    assert not collinear(p[0], p[1], p[4])  # triangle of reference


def test_collinear_triple_frozen_example():
    pts = [PLANE.points[i] for i in (0, 1, 4, 8, 12)]
    triple = collinear_triple_in(pts)
    assert tuple(p.index for p in triple) == (4, 8, 12)


def test_every_five_points_contain_a_collinear_triple():
    # no 5-arc exists: all 1287 subsets produce a triple
    for combo in itertools.combinations(PLANE.points, 5):
        triple = collinear_triple_in(combo)
        assert collinear(*triple)


def test_four_point_arcs_exist():
    # the bound is sharp: quadrangles do exist
    p = PLANE.points
    quad = (p[0], p[1], p[4], p[8])
    for t in itertools.combinations(quad, 3):
        assert not collinear(*t)
