"""Quadratic form tests.

classify() works from level-set signatures; the structural oracle here
re-identifies each type from the zero set alone (size, and collinearity
for the size-4 cases) and must agree on all 728 nonzero forms.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from witt12.plane import PLANE, collinear
from witt12.quadrics import (
    QuadraticForm,
    QuadricType,
    all_nonzero_forms,
    canonical_table,
    classify,
    conic_geometry,
    evaluate,
    evaluate_vec,
    form_pair_representatives,
    level_set,
    point_values,
    signature,
)


def forms():
    return st.tuples(*[st.integers(0, 2)] * 6).filter(lambda c: any(c)).map(
        QuadraticForm
    )


def doubled(q):
    """The form 2q."""
    return QuadraticForm.of(*(2 * c for c in q.coeffs))


def reference_evaluate(coeffs, v):
    # independent of the library's evaluation path
    a00, a01, a02, a11, a12, a22 = coeffs
    x0, x1, x2 = v
    return (
        a00 * x0 * x0
        + a01 * x0 * x1
        + a02 * x0 * x2
        + a11 * x1 * x1
        + a12 * x1 * x2
        + a22 * x2 * x2
    ) % 3


@given(forms())
def test_evaluate_matches_reference(q):
    for p in PLANE.points:
        assert evaluate(q, p) == reference_evaluate(q.coeffs, p.rep)


@given(forms(), st.sampled_from([1, 2]))
def test_evaluate_well_defined_on_scalar_classes(q, c):
    for p in PLANE.points:
        scaled = tuple((c * x) % 3 for x in p.rep)
        assert evaluate_vec(q, scaled) == evaluate_vec(q, p.rep)


def test_form_constructors():
    q = QuadraticForm.of(1, 0, 0, 1, 0, 1)
    assert q.coeffs == (1, 0, 0, 1, 0, 1)
    assert QuadraticForm.of(4, -3, 0, 1, 0, 1) == q
    assert not q.is_zero()
    assert QuadraticForm.of(0, 0, 0, 0, 0, 0).is_zero()
    with pytest.raises(ValueError):
        QuadraticForm((1, 0, 3, 0, 0, 0))


@given(forms())
def test_level_sets_partition_the_plane(q):
    sets = [level_set(q, t) for t in range(3)]
    indices = sorted(p.index for s in sets for p in s)
    assert indices == list(range(13))


def test_level_set_rejects_zero_form():
    with pytest.raises(ValueError):
        level_set(QuadraticForm.of(0, 0, 0, 0, 0, 0), 0)


@given(forms())
def test_doubling_swaps_nonzero_levels(q):
    d = doubled(q)
    assert signature(d) == (signature(q)[0], signature(q)[2], signature(q)[1])
    assert classify(d) is classify(q)


def test_canonical_table_values():
    rows = canonical_table()
    assert [r.counts for r in rows] == [(4, 3, 6), (1, 6, 6), (7, 3, 3), (4, 9, 0)]
    assert [classify(r.form) for r in rows] == [
        QuadricType.CONIC,
        QuadricType.SINGLE_POINT,
        QuadricType.LINE_PAIR,
        QuadricType.DOUBLE_LINE,
    ]
    for t in QuadricType:
        assert classify(t.canonical_shape) is t


def structural_type(q):
    zero = {p.index for p in level_set(q, 0)}
    if len(zero) == 1:
        return QuadricType.SINGLE_POINT
    if len(zero) == 7:
        return QuadricType.LINE_PAIR
    assert len(zero) == 4
    pts = [PLANE.points[i] for i in sorted(zero)]
    if any(collinear(*t) for t in itertools.combinations(pts, 3)):
        return QuadricType.DOUBLE_LINE
    return QuadricType.CONIC


def test_classification_agrees_with_structural_oracle():
    census = Counter()
    zero_sets = {t: set() for t in QuadricType}
    for q in all_nonzero_forms():
        t = classify(q)
        assert structural_type(q) is t
        census[t] += 1
        zero_sets[t].add(frozenset(p.index for p in level_set(q, 0)))
    assert census == {
        QuadricType.CONIC: 468,
        QuadricType.SINGLE_POINT: 78,
        QuadricType.LINE_PAIR: 156,
        QuadricType.DOUBLE_LINE: 26,
    }
    # distinct zero sets: 13 points, 78 line pairs, 13 lines, 234 conics
    assert len(zero_sets[QuadricType.SINGLE_POINT]) == 13
    assert len(zero_sets[QuadricType.LINE_PAIR]) == 78
    assert len(zero_sets[QuadricType.DOUBLE_LINE]) == 13
    assert len(zero_sets[QuadricType.CONIC]) == 234


def test_line_pair_zero_set_is_a_union_of_two_lines():
    q = QuadricType.LINE_PAIR.canonical_shape
    zero = {p.index for p in level_set(q, 0)}
    pairs = [
        (a, b)
        for a, b in itertools.combinations(PLANE.lines, 2)
        if set(a.points) | set(b.points) == zero
    ]
    assert len(pairs) == 1


def test_form_pair_representatives():
    reps = form_pair_representatives()
    assert len(reps) == 364
    # the smaller of each pair, in the order of all_nonzero_forms
    assert reps == tuple(q for q in all_nonzero_forms() if q.coeffs <= doubled(q).coeffs)
    seen = set()
    for q in reps:
        assert q.coeffs <= doubled(q).coeffs
        seen.add(q.coeffs)
        seen.add(doubled(q).coeffs)
    assert len(seen) == 728


def test_conic_geometry_frozen_example():
    geo = conic_geometry(QuadraticForm.of(1, 0, 0, 1, 0, 1))
    assert [p.index for p in geo.conic] == [8, 9, 11, 12]
    assert [p.index for p in geo.external] == [2, 3, 5, 6, 7, 10]
    assert [p.index for p in geo.internal] == [0, 1, 4]
    assert len(geo.tangents) == 4


def test_conic_geometry_rejects_degenerate_forms():
    with pytest.raises(ValueError):
        conic_geometry(QuadricType.LINE_PAIR.canonical_shape)


def all_conic_geometries():
    seen = set()
    out = []
    for q in all_nonzero_forms():
        if classify(q) is not QuadricType.CONIC:
            continue
        key = frozenset(p.index for p in level_set(q, 0))
        if key in seen:
            continue
        seen.add(key)
        out.append(conic_geometry(q))
    return out


def test_tangent_structure_of_every_conic():
    geos = all_conic_geometries()
    assert len(geos) == 234
    for geo in geos:
        conic = {p.index for p in geo.conic}
        assert len(geo.tangents) == 4
        for t in geo.tangents:
            assert len(set(t.points) & conic) == 1
        assert len(geo.external) == 6
        assert len(geo.internal) == 3


def test_no_line_carries_four_external_points():
    for geo in all_conic_geometries():
        ext = {p.index for p in geo.external}
        for ln in PLANE.lines:
            assert len(set(ln.points) & ext) <= 3


def test_internal_points_avoid_all_tangents():
    for geo in all_conic_geometries():
        tangent_pts = set().union(*(t.points for t in geo.tangents))
        for p in geo.internal:
            assert p.index not in tangent_pts


def test_point_values_is_evaluate_at_every_point():
    for q in all_nonzero_forms():
        assert point_values(q.coeffs) == tuple(evaluate(q, p) for p in PLANE.points)
    with pytest.raises(ValueError):
        point_values((0,) * 6)
