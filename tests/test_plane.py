"""Projective plane tests.

The canonical point order is frozen here from an independent
enumeration (normalize all 26 nonzero vectors, deduplicate, sort), so a
regression in the plane builder cannot silently reorder the indices the
rest of the package depends on.
"""

import importlib
import inspect
import itertools
import pkgutil
import re

import pytest
from hypothesis import given, strategies as st

import witt12
from witt12 import design, gf3, plane
from witt12.checks import InvariantError
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


def test_every_function_reads_the_one_plane():
    # only the generic checks layer takes its structure as an argument
    takes_plane = set()
    for info in pkgutil.iter_modules(witt12.__path__):
        module = importlib.import_module(f"witt12.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            routines = [(name, obj)] if inspect.isroutine(obj) else []
            if inspect.isclass(obj):
                routines += [
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))
                ]
            takes_plane |= {
                f"{module.__name__}.{qual}"
                for qual, fn in routines
                if "plane" in inspect.signature(fn).parameters
            }
    assert takes_plane == {"witt12.checks.affine_residue"}
    assert "plane" not in design.WittModel._fields
    assert design.construct().u is design.DEFAULT_U


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
    assert normalize(tuple(c * x % 3 for x in v)) == normalize(v)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize((0, 0, 0))


@pytest.mark.parametrize("v", [(1, 0), (1, 0, 0, 1)])
def test_normalize_rejects_a_non_triple(v):
    with pytest.raises(ValueError, match="^expected a coordinate triple$"):
        normalize(v)


def test_index_of_numbers_each_nonzero_triple_by_its_point():
    table = PLANE.index_of
    assert len(table) == 26
    assert set(table) == {v for v in itertools.product(range(3), repeat=3) if any(v)}
    for p in PLANE.points:
        assert table[p.rep] == table[tuple(2 * x % 3 for x in p.rep)] == p.index


@given(nonzero_vectors())
def test_points_and_lines_read_the_one_index_table(v):
    # a point and the line with the same dual triple share one index
    i = PLANE.index_of[normalize(v)]
    assert PLANE.point_from_vec(v).index == PLANE.line_from_dual(v).index == i


def test_incidence_is_orthogonality():
    for p in PLANE.points:
        for ln in PLANE.lines:
            assert (p.index in ln.points) == (gf3.dot(p.rep, ln.dual) == 0)
        assert PLANE.lines_through(p) == tuple(ln for ln in PLANE.lines if gf3.dot(p.rep, ln.dual) == 0)


def test_line_through_every_pair():
    # two points lie on one line: the one whose dual triple is orthogonal to both
    for p, q in itertools.combinations(PLANE.points, 2):
        on_both = [ln for ln in PLANE.lines if p.index in ln.points and q.index in ln.points]
        assert len(on_both) == 1
        assert on_both == [ln for ln in PLANE.lines if gf3.dot(p.rep, ln.dual) == gf3.dot(q.rep, ln.dual) == 0]


# specs int() would read: underscores, signs, inner spaces, other scripts' digits
NON_ASCII_INTEGERS = (
    "#1_0", "#\u0662", "#+4", "# 4", "1_0:0:0", "+1:0:0", "\uff11:0:0", "1:0:\u0662",
)


def test_parse_point():
    assert PLANE.parse_point("#3").rep == (0, 1, 2)
    assert PLANE.parse_point("0:1:2").index == 3
    assert PLANE.parse_point("0:2:1").index == 3  # scalar multiple
    assert PLANE.parse_point("-1:0:0").index == 4
    assert PLANE.parse_point(" 1 : 0 : 0 ").index == 4
    for bad in ("#13", "#-1", "0:0:0", "abc", "1:2", "1:2:3:4", "1:x:2", *NON_ASCII_INTEGERS):
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
    for bad in ("#13", "#-1", "0:0:0", "abc", "1:2", "1:2:3:4", "1:x:2", *NON_ASCII_INTEGERS):
        with pytest.raises(ValueError):
            PLANE.parse_line(bad)


# int() reads at most 4300 digits by default and raises ValueError beyond,
# which the parser reports as a bad spec like any other
@pytest.mark.parametrize("spec", ["#" + "1" * 4301, "1" * 4301 + ":0:0"], ids=["index", "coordinates"])
@pytest.mark.parametrize("kind", ["point", "line"])
def test_a_spec_over_the_digit_limit_is_bad(kind, spec):
    parse = PLANE.parse_point if kind == "point" else PLANE.parse_line
    with pytest.raises(ValueError, match="^" + re.escape(f"bad {kind} spec {spec!r}") + "$"):
        parse(spec)


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


@pytest.mark.parametrize("indices", [(0, 1, 2, 3), (0, 0, 1, 4, 8), (0, 1, 2, 3, 4, 5)])
def test_collinear_triple_in_needs_five_distinct_points(indices):
    with pytest.raises(ValueError, match="^expected five distinct points$"):
        collinear_triple_in([PLANE.points[i] for i in indices])


def test_four_point_arcs_exist():
    # the bound is sharp: quadrangles do exist
    p = PLANE.points
    quad = (p[0], p[1], p[4], p[8])
    for t in itertools.combinations(quad, 3):
        assert not collinear(*t)


# ------------------------------------------------------------ fault injection


def test_a_missing_point_raises(monkeypatch):
    triples = plane._canonical_triples
    monkeypatch.setattr(plane, "_canonical_triples", lambda: triples()[1:])
    with pytest.raises(InvariantError, match="^wrong number of points$"):
        plane.PlaneModel()


def test_a_line_of_every_point_raises(monkeypatch):
    # every dot product zero: each line would hold all 13 points
    monkeypatch.setattr(plane, "dot", lambda u, v: 0)
    with pytest.raises(InvariantError, match="^a line without four points$"):
        plane.PlaneModel()


def test_five_points_without_a_collinear_triple_raise(monkeypatch):
    monkeypatch.setattr(plane, "collinear", lambda p, q, r: False)
    with pytest.raises(InvariantError, match="^five points with no collinear triple: invariant broken$"):
        collinear_triple_in(PLANE.points[:5])
