"""Block system tests.

Frozen values (the three block examples, the census, the case
certificates) were derived once by enumeration and pinned; the
enumeration oracles that derived them run alongside, so a regression
breaks both the pin and the oracle comparison.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import witt12
from witt12 import design, quadrics
from witt12.checks import InvariantError
from witt12.design import (
    ConicExterior,
    LinePairMinusU,
    SymmetricDifference,
    block_of_form,
    block_through,
    classify_block,
    construct,
    rederive_block,
    solve_block_through,
)
from witt12.plane import PLANE
from witt12.quadrics import QuadraticForm, form_pair_representatives
from witt12.symmetry import all_collineations

EXPECTED_CENSUS = {
    ConicExterior: 54,
    SymmetricDifference: 36,
    LinePairMinusU: 42,
}


def test_frozen_block_examples(model):
    q = QuadraticForm.of(1, 0, 0, 1, 0, 1)
    assert block_of_form(q, model.u) == (2, 3, 5, 6, 7, 10)
    assert block_of_form(QuadraticForm.of(0, 0, 0, 1, 0, 2), model.u) == (
        2, 3, 8, 9, 11, 12,
    )
    assert block_of_form(QuadraticForm.of(0, 0, 0, 1, 0, 1), model.u) is None


def test_block_of_form_constant_on_pair_classes(model):
    for q in form_pair_representatives():
        assert block_of_form(q, model.u) == block_of_form(QuadraticForm.of(*(2 * c for c in q.coeffs)), model.u)


def test_model_shape(model):
    assert model.u.index == 4
    assert model.w == tuple(i for i in range(13) if i != 4)
    assert len(model.blocks) == 132
    assert list(model.blocks) == sorted(model.blocks)
    assert len(set(model.blocks)) == 132
    for b in model.blocks:
        assert len(b) == 6
        assert set(b) <= set(model.w)


def test_every_five_subset_covered_exactly_once(model):
    cover = Counter(
        sub for b in model.blocks for sub in itertools.combinations(b, 5)
    )
    assert len(cover) == 792
    assert set(cover.values()) == {1}
    # the sixth-point table: 792 five-sets of W positions, each with the
    # sixth point of the one block over it
    assert len(model.sixth) == 792
    for mask, x in model.sixth.items():
        sub = [model.w[i] for i in range(12) if mask >> i & 1]
        assert len(sub) == 5 and mask < 1 << 12 and not mask >> x & 1
        assert cover[tuple(sub)] == 1
        assert tuple(sorted((*sub, model.w[x]))) in model.blocks


def test_census(model):
    got = Counter(type(c) for c in model.classes)
    assert got == EXPECTED_CENSUS


def test_every_witness_rederives_its_block(model):
    for b, cls_ in zip(model.blocks, model.classes):
        assert rederive_block(cls_, model.u) == b


def test_classify_frozen_examples(model):
    c = classify_block(model, (2, 3, 5, 6, 7, 10))
    assert isinstance(c, ConicExterior)
    assert c.form.coeffs == (1, 0, 0, 1, 0, 1)

    s = classify_block(model, (7, 8, 9, 10, 11, 12))
    assert isinstance(s, SymmetricDifference)
    assert tuple(ln.dual for ln in s.lines) == ((1, 1, 0), (1, 2, 0))

    lp = classify_block(model, (2, 3, 8, 9, 11, 12))
    assert isinstance(lp, LinePairMinusU)
    assert tuple(ln.dual for ln in lp.lines) == ((0, 1, 1), (0, 1, 2))


def test_classify_rejects_non_blocks(model):
    # (0,1,2,3,5) extends uniquely to a block, and not by the point 7
    b = block_through(model, (0, 1, 2, 3, 5))
    assert 7 not in b
    with pytest.raises(ValueError):
        classify_block(model, (0, 1, 2, 3, 5, 7))


def test_rederive_rejects_corrupt_witnesses(model):
    with pytest.raises(ValueError):
        rederive_block(ConicExterior(QuadraticForm.of(1, 0, 0, 1, 0, 0)), model.u)
    ln = PLANE.lines[7]
    with pytest.raises(ValueError):
        rederive_block(LinePairMinusU((ln, ln)), model.u)
    with pytest.raises(ValueError):
        rederive_block(SymmetricDifference((ln, ln)), model.u)
    with pytest.raises(ValueError):
        # lines through U cannot witness a symmetric difference block
        rederive_block(SymmetricDifference((PLANE.lines[0], PLANE.lines[1])), model.u)


def test_block_through_validation(model):
    with pytest.raises(ValueError):
        block_through(model, (2, 3, 5, 6))
    with pytest.raises(ValueError):
        block_through(model, (2, 3, 5, 6, 6))
    with pytest.raises(ValueError):
        block_through(model, (2, 3, 5, 6, 4))  # contains U
    with pytest.raises(ValueError):
        block_through(model, (2, 3, 5, 6, 13))


def test_solver_frozen_examples(model):
    a = solve_block_through((2, 3, 5, 6, 7))
    assert a.case == "A"
    assert a.block == (2, 3, 5, 6, 7, 10)
    assert a.determinant != 0
    assert a.dimension == 1

    b = solve_block_through((2, 3, 8, 9, 11))
    assert b.case == "B"
    assert b.block == (2, 3, 8, 9, 11, 12)
    assert b.determinant == 0


def test_broken_certificate_raises_under_optimize():
    # with the determinant forced to 0, the case A five-set (2, 3, 5, 6, 7)
    # fails its certificate; python -O must not silence that
    script = (
        "import sys, witt12.design as d\n"
        "if not sys.flags.optimize: raise SystemExit('not optimized')\n"
        "d.det = lambda m: 0\n"
        "d.solve_block_through((2, 3, 5, 6, 7))\n"
    )
    src = os.path.dirname(os.path.dirname(witt12.__file__))
    p = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert p.returncode == 1
    assert p.stderr.strip().splitlines()[-1].startswith("witt12.checks.InvariantError: case A")


def test_solver_agrees_with_lookup_everywhere(model):
    for five in itertools.combinations(model.w, 5):
        sol = solve_block_through(five, model.u)
        assert sol.block == block_through(model, five)
        cls_ = classify_block(model, sol.block)
        if isinstance(cls_, LinePairMinusU):
            assert sol.case == "B"
            assert sol.determinant == 0
        else:
            assert sol.case == "A"
            assert sol.determinant != 0
            assert sol.dimension == 1
        assert set(five) <= set(block_of_form(sol.form, model.u))


def reference_solutions(five, u):
    """All nonzero coefficient tuples solving the five conditions, by brute force."""

    def ev(c, v):
        a00, a01, a02, a11, a12, a22 = c
        x0, x1, x2 = v
        return (
            a00 * x0 * x0 + a01 * x0 * x1 + a02 * x0 * x2
            + a11 * x1 * x1 + a12 * x1 * x2 + a22 * x2 * x2
        ) % 3

    out = set()
    for c in itertools.product(range(3), repeat=6):
        if not any(c):
            continue
        uu = ev(c, u.rep)
        if all(ev(c, PLANE.points[i].rep) == (2 * uu) % 3 for i in five):
            out.add(c)
    return out


def test_solver_against_brute_force_enumeration(model):
    rng = random.Random(1203)
    subsets = rng.sample(list(itertools.combinations(model.w, 5)), 24)
    for five in subsets:
        sol = solve_block_through(five, model.u)
        ref = reference_solutions(five, model.u)
        assert len(ref) == 3**sol.dimension - 1
        assert sol.form.coeffs in ref


def test_alternate_removed_point_gives_isomorphic_design(model):
    other = construct(PLANE.points[0])
    assert other.u.index == 0
    assert len(other.blocks) == 132
    assert Counter(type(c) for c in other.classes) == EXPECTED_CENSUS
    assert other.blocks != model.blocks
    carrier = next(
        c for c in all_collineations() if c.point_map()[model.u.index] == 0
    )
    pm = carrier.point_map()
    mapped = {tuple(sorted(pm[x] for x in b)) for b in model.blocks}
    assert mapped == set(other.blocks)


@pytest.mark.parametrize("u", range(13))
def test_every_u_is_a_collineation_image_of_the_default(model, collineations, u):
    # the design at U is the kappa-image of the design at #4 for any
    # collineation kappa with #4 -> U, block for block; the census and the
    # solver's case split (both certificate branches) are the same at every U
    other = construct(PLANE.points[u])
    kappa = next(c for c in collineations if c.point_map()[model.u.index] == u)
    pm = kappa.point_map()
    assert other.blocks == tuple(sorted(tuple(sorted(pm[x] for x in b)) for b in model.blocks))
    assert Counter(type(c) for c in other.classes) == EXPECTED_CENSUS
    cases = Counter()
    for five in itertools.combinations(other.w, 5):
        sol = solve_block_through(five, other.u)
        assert sol.block == block_through(other, five)
        line_pair = isinstance(classify_block(other, sol.block), LinePairMinusU)
        assert (sol.case == "B") == line_pair == (sol.determinant == 0)
        cases[sol.case] += 1
    assert cases == {"A": 540, "B": 252}


# ------------------------------------------------- value-vector fault injection


def corrupt_point_values(monkeypatch, corrupt):
    """Make construct and conic_geometry read corrupt(coeffs, values) as
    the value vector of each form."""
    real = quadrics.point_values
    fake = lambda coeffs: corrupt(tuple(coeffs), list(real(coeffs)))  # noqa: E731
    monkeypatch.setattr(design, "point_values", fake)
    monkeypatch.setattr(quadrics, "point_values", fake)


def conic_witnesses(model):
    return [c.form.coeffs for c in model.classes if isinstance(c, ConicExterior)]


@pytest.mark.parametrize("point", [0, 4, 12])
def test_a_value_wrong_at_one_point_breaks_a_candidate_size(monkeypatch, point):
    def corrupt(coeffs, v):
        v[point] = (v[point] + 1) % 3
        return tuple(v)

    corrupt_point_values(monkeypatch, corrupt)
    with pytest.raises(InvariantError, match="^candidate set of size [0-9]+$"):
        construct()


def test_a_form_given_another_witness_values_makes_two_witnesses(model, monkeypatch):
    first, second = conic_witnesses(model)[:2]
    values = quadrics.point_values(second)
    corrupt_point_values(monkeypatch, lambda coeffs, v: values if coeffs == first else tuple(v))
    with pytest.raises(InvariantError, match="^a block with two witness forms$"):
        construct()


def test_a_witness_given_a_non_block_values_loses_a_block(model, monkeypatch):
    first = conic_witnesses(model)[0]
    values = quadrics.point_values((0, 0, 0, 0, 0, 1))  # x2^2: no block
    corrupt_point_values(monkeypatch, lambda coeffs, v: values if coeffs == first else tuple(v))
    with pytest.raises(InvariantError, match="^the design does not have 132 blocks$"):
        construct()


def test_a_conic_with_two_values_swapped_splits_against_its_levels(model, monkeypatch):
    # an external and an internal point trade values: the tangents still
    # give the true split, which the level sets no longer match
    first = conic_witnesses(model)[0]
    geo = quadrics.conic_geometry(QuadraticForm(first))
    e, i = geo.external[0].index, next(p.index for p in geo.internal if p != model.u)

    def corrupt(coeffs, v):
        if coeffs == first:
            v[e], v[i] = v[i], v[e]
        return tuple(v)

    corrupt_point_values(monkeypatch, corrupt)
    with pytest.raises(InvariantError, match="^levels disagree$"):
        construct()


# --------------------------------------------- witness-check fault injection


def replace_points(block, out, into):
    return tuple(sorted(set(block) - set(out) | set(into)))


def one_zero_fewer(u, block, values, lines, off):
    values[min(i for i, v in enumerate(values) if v == 0 and i != u.index)] = 1
    return u, block, values


def one_zero_more(u, block, values, lines, off):
    values[block[0]] = 0
    return u, block, values


def block_point_swapped_out(u, block, values, lines, off):
    return u, replace_points(block, block[:1], [off]), values


def block_point_as_u(u, block, values, lines, off):
    return PLANE.points[block[0]], block, values


def centre_and_off_point_swapped_in(u, block, values, lines, off):
    # each witness line still meets the block in three points, its own
    # two plus the centre, but the block is no longer their difference
    r, s = (min(set(ln.points) & set(block)) for ln in lines)
    (centre,) = set(lines[0].points) & set(lines[1].points)
    return u, replace_points(block, [r, s], [centre, off]), values


WITNESS_FAULTS = [
    (LinePairMinusU, one_zero_fewer, "the zero set through U is not a line pair"),
    (LinePairMinusU, block_point_swapped_out, "the line pair is not the block plus U"),
    (ConicExterior, block_point_as_u, "U is not internal to the conic"),
    (ConicExterior, block_point_swapped_out, "block is not the exterior"),
    (SymmetricDifference, one_zero_more, "zero set of size 2"),
    (SymmetricDifference, block_point_swapped_out, "no line pair through the centre"),
    (SymmetricDifference, centre_and_off_point_swapped_in, "block is not the symmetric difference"),
    (SymmetricDifference, block_point_as_u, "U lies on the line pair"),
]


@pytest.mark.parametrize(
    "shape, change, message",
    [pytest.param(*f, id=f"{f[0].__name__}-{f[1].__name__}") for f in WITNESS_FAULTS],
)
def test_a_tampered_witness_fails_its_shape_check(model, shape, change, message):
    # a real block of the shape with its witness form's values, then one
    # of U, the block or the values changed; off is a point off U, the
    # block and the witness lines
    k = next(i for i, c in enumerate(model.classes) if isinstance(c, shape))
    block, lines = model.blocks[k], getattr(model.classes[k], "lines", ())
    coeffs = next(q.coeffs for q in form_pair_representatives() if block_of_form(q, model.u) == block)
    used = {model.u.index, *block, *(x for ln in lines for x in ln.points)}
    off = min(set(range(13)) - used)
    values = quadrics.point_values(coeffs)
    assert isinstance(design._classify_from_form(model.u, block, coeffs, values), shape)
    u, block, values = change(model.u, block, list(values), lines, off)
    with pytest.raises(InvariantError, match=f"^{message}$"):
        design._classify_from_form(u, block, coeffs, tuple(values))
