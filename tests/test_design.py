"""Block system tests.

Frozen values (the three block examples, the census, the case
certificates) were derived once by enumeration and pinned; the
enumeration oracles that derived them run alongside, so a regression
breaks both the pin and the oracle comparison.
"""

import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

import witt12
from witt12 import design, quadrics
from witt12.checks import InvariantError
from witt12.design import (
    KIND_CONIC,
    KIND_LINEPAIR,
    KIND_SYMDIFF,
    block_of_form,
    block_through,
    construct,
    rederive_block,
    solve_block_through,
)
from witt12.designfile import DesignFileError, document_from_model, parse_structured, render_structured
from witt12.plane import PLANE
from witt12.quadrics import QuadraticForm, form_pair_representatives
from witt12.symmetry import point_map

EXPECTED_CENSUS = {
    "conic_exterior": 54,
    "symmetric_difference": 36,
    "line_pair_minus_u": 42,
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
    got = Counter(c["kind"] for c in model.classes)
    assert got == EXPECTED_CENSUS


def test_every_witness_rederives_its_block(model):
    for b, obj in zip(model.blocks, model.classes):
        assert rederive_block(obj, model.u) == b


def classify_block(m, b):
    """The witness object the model records for a block, by its position."""
    return m.classes[m.blocks.index(b)]


def test_classify_frozen_examples(model):
    assert classify_block(model, (2, 3, 5, 6, 7, 10)) == {
        "kind": "conic_exterior", "form": [1, 0, 0, 1, 0, 1],
    }
    assert classify_block(model, (7, 8, 9, 10, 11, 12)) == {
        "kind": "symmetric_difference", "lines": ["1:1:0", "1:2:0"],
    }
    assert classify_block(model, (2, 3, 8, 9, 11, 12)) == {
        "kind": "line_pair_minus_u", "lines": ["0:1:1", "0:1:2"],
    }


# one malformed witness object per check of rederive_block, at U = #4;
# line #0 passes through U, lines #5 and #7 avoid it
CORRUPT_WITNESSES = [
    ("unknown-kind", {"kind": "conic"}, "unknown class kind 'conic'"),
    ("missing-form", {"kind": KIND_CONIC}, "conic record without a form"),
    ("missing-lines", {"kind": KIND_LINEPAIR}, "line_pair_minus_u record without lines"),
    ("empty-object", {}, "unknown class kind None"),
    ("null-form", {"kind": KIND_CONIC, "form": None}, "conic record without a form"),
    ("string-coefficient", {"kind": KIND_CONIC, "form": [1, 0, 0, "1", 0, 1]}, "form must be a list of ints"),
    ("null-lines", {"kind": KIND_SYMDIFF, "lines": None}, "symmetric_difference record without lines"),
    ("integer-lines", {"kind": KIND_LINEPAIR, "lines": [0, 1]}, "lines must be two coordinate strings"),
    ("bad-line-spec", {"kind": KIND_SYMDIFF, "lines": ["1:1", "#7"]}, "bad line spec '1:1'"),
    ("five-coefficients", {"kind": KIND_CONIC, "form": [1, 0, 0, 1, 0]}, "a form has six coefficients"),
    (
        "non-conic-form",  # x0^2 + x1^2 vanishes at one point only
        {"kind": KIND_CONIC, "form": [1, 0, 0, 1, 0, 0]},
        "conic geometry needs a nondegenerate conic form",
    ),
    (
        "u-outside-conic",  # x0^2 + x1 x2 is 1 at U, an external point
        {"kind": KIND_CONIC, "form": [1, 0, 0, 0, 1, 0]},
        "witness conic does not have U as an internal point",
    ),
    ("symdiff-repeated-line", {"kind": KIND_SYMDIFF, "lines": ["#7", "#7"]}, "witness lines must be distinct"),
    ("line-pair-repeated-line", {"kind": KIND_LINEPAIR, "lines": ["#7", "#7"]}, "witness lines must be distinct"),
    ("symdiff-line-through-u", {"kind": KIND_SYMDIFF, "lines": ["#0", "#7"]}, "witness lines must avoid U"),
    ("line-pair-misses-u", {"kind": KIND_LINEPAIR, "lines": ["#5", "#7"]}, "witness line pair must pass through U"),
    # a JSON true is a bool, not a coefficient, in the library as in a file
    ("bool-coefficient", {"kind": KIND_CONIC, "form": [True, 0, 2, 2, 1, 2]}, "form must be a list of ints"),
    ("not-an-object", ["kind"], "unknown class kind None"),
    (
        "conic-with-integer-lines",  # a sound form does not excuse a malformed lines field
        {"kind": KIND_CONIC, "form": [1, 0, 0, 1, 0, 1], "lines": 5},
        "lines must be two coordinate strings",
    ),
]
# the messages of the one witness-shape rule, design.shaped_witness
FIELD_SHAPE_MESSAGES = {"form must be a list of ints", "lines must be two coordinate strings"}


@pytest.mark.parametrize("obj, message", [pytest.param(*c[1:], id=c[0]) for c in CORRUPT_WITNESSES])
def test_rederive_rejects_corrupt_witnesses(model, obj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rederive_block(obj, model.u)


@pytest.mark.parametrize("obj", [pytest.param(c[1], id=c[0]) for c in CORRUPT_WITNESSES])
def test_a_file_and_the_library_apply_one_witness_shape_rule(model, obj):
    # the witness in place of the first class of the canonical U = #4 file
    doc = document_from_model(model)
    doc["classes"][0] = obj
    try:
        parse_structured(render_structured(doc))
        file_message = None
    except DesignFileError as e:
        file_message = str(e)
    try:
        rederive_block(obj, model.u)
        library_message = None
    except ValueError as e:
        library_message = str(e)
    if file_message is not None:
        assert library_message is not None
    if library_message in FIELD_SHAPE_MESSAGES:
        assert file_message == library_message


@pytest.mark.parametrize(
    "five, message",
    [
        ((2, 2, 5, 6, 7), "the five points must be distinct"),
        ((2, 3, 5, 6), "expected five points"),
        ((2, 3, 5, 6, 7, 8), "expected five points"),
        ((2, 3, 5, 6, 4), "the removed point U cannot lie in a block"),
        ((2, 3, 5, 6, 13), "point index out of range"),
    ],
    ids=["repeat", "four", "six", "u", "out-of-range"],
)
def test_both_block_methods_state_the_five_point_rule(model, five, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        block_through(model, five)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_block_through(five, model.u)


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


@pytest.mark.parametrize(
    "name, fake, five, message",
    [
        ("det", lambda real: lambda m: 1, (2, 3, 8, 9, 11), "case B certificate fails"),
        ("null_space", lambda real: lambda m: real(m) * 2, (2, 3, 5, 6, 7), "case A kernel of dimension 2"),
        ("block_of_form", lambda real: lambda q, u: None, (2, 3, 5, 6, 7), "block misses a point"),
    ],
    ids=["det", "null_space", "block_of_form"],
)
def test_a_broken_solver_step_fails_its_certificate(monkeypatch, name, fake, five, message):
    # the solver reads det, null_space and block_of_form as globals of
    # design, so each patch reaches only the solver: a case B five-set
    # with a nonzero determinant, a case A one with every kernel vector
    # doubled, and a form whose points are no block
    monkeypatch.setattr(design, name, fake(getattr(design, name)))
    with pytest.raises(InvariantError, match=f"^{message}$"):
        solve_block_through(five)


def test_solver_agrees_with_lookup_everywhere(model):
    for five in itertools.combinations(model.w, 5):
        sol = solve_block_through(five, model.u)
        assert sol.block == block_through(model, five)
        if classify_block(model, sol.block)["kind"] == KIND_LINEPAIR:
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


def test_alternate_removed_point_gives_isomorphic_design(model, collineations):
    other = construct(PLANE.points[0])
    assert other.u.index == 0
    assert len(other.blocks) == 132
    assert Counter(c["kind"] for c in other.classes) == EXPECTED_CENSUS
    assert other.blocks != model.blocks
    carrier = next(c for c in collineations if point_map(c)[model.u.index] == 0)
    pm = point_map(carrier)
    mapped = {tuple(sorted(pm[x] for x in b)) for b in model.blocks}
    assert mapped == set(other.blocks)


@pytest.mark.parametrize("u", range(13))
def test_every_u_is_a_collineation_image_of_the_default(model, collineations, u):
    # the design at U is the kappa-image of the design at #4 for any
    # collineation kappa with #4 -> U, block for block; the census and the
    # solver's case split (both certificate branches) are the same at every U
    other = construct(PLANE.points[u])
    kappa = next(c for c in collineations if point_map(c)[model.u.index] == u)
    pm = point_map(kappa)
    assert other.blocks == tuple(sorted(tuple(sorted(pm[x] for x in b)) for b in model.blocks))
    assert Counter(c["kind"] for c in other.classes) == EXPECTED_CENSUS
    cases = Counter()
    for five in itertools.combinations(other.w, 5):
        sol = solve_block_through(five, other.u)
        assert sol.block == block_through(other, five)
        line_pair = classify_block(other, sol.block)["kind"] == KIND_LINEPAIR
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
    return [tuple(c["form"]) for c in model.classes if c["kind"] == KIND_CONIC]


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


# the search's own checks name the zero set or the line pair; the rest
# are rederive_block's: a ValueError of it, or another block
NOT_THE_BLOCK = "the witness does not re-derive the block"
WITNESS_FAULTS = [
    (KIND_LINEPAIR, one_zero_fewer, "the zero set through U is not a line pair"),
    (KIND_LINEPAIR, block_point_swapped_out, NOT_THE_BLOCK),
    (KIND_CONIC, block_point_as_u, "witness conic does not have U as an internal point"),
    (KIND_CONIC, block_point_swapped_out, NOT_THE_BLOCK),
    (KIND_SYMDIFF, one_zero_more, "zero set of size 2"),
    (KIND_SYMDIFF, block_point_swapped_out, "no line pair through the centre"),
    (KIND_SYMDIFF, centre_and_off_point_swapped_in, NOT_THE_BLOCK),
    (KIND_SYMDIFF, block_point_as_u, "witness lines must avoid U"),
]


@pytest.mark.parametrize(
    "kind, change, message",
    [pytest.param(*f, id=f"{f[0]}-{f[1].__name__}") for f in WITNESS_FAULTS],
)
def test_a_tampered_witness_fails_its_shape_check(model, kind, change, message):
    # a real block of the kind with its witness form's values, then one
    # of U, the block or the values changed; off is a point off U, the
    # block and the witness lines
    k = next(i for i, c in enumerate(model.classes) if c["kind"] == kind)
    block, lines = model.blocks[k], [PLANE.parse_line(s) for s in model.classes[k].get("lines", ())]
    coeffs = next(q.coeffs for q in form_pair_representatives() if block_of_form(q, model.u) == block)
    used = {model.u.index, *block, *(x for ln in lines for x in ln.points)}
    off = min(set(range(13)) - used)
    values = quadrics.point_values(coeffs)
    assert design._classify_from_form(model.u, block, coeffs, values) == model.classes[k]
    u, block, values = change(model.u, block, list(values), lines, off)
    with pytest.raises(InvariantError, match=f"^{message}$"):
        design._classify_from_form(u, block, coeffs, tuple(values))
