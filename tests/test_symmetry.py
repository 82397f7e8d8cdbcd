"""Collineation and automorphism tests.

The automorphism list is re-verified here with machinery the search
never touches: a vectorized block-image comparison over all 95040
candidates, and a full 9!-scan oracle for the affinities of two lines,
one of each residue shape.  The group order and transitivity degree are
pinned, and the group order by Schreier's lemma down the base 0, 1,
2, ... is checked against the closure of the generators.  Each Remark 3
extension, read off the stabilizer chain, is checked against the full
enumeration as the reference, and each line's table of collineations
against the independent backtracking over affinities.
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from witt12 import symmetry
from witt12.checks import InvariantError
from witt12.design import construct
from witt12.plane import PLANE, collinear
from witt12.symmetry import (
    affinities,
    complete_maps,
    compose_perm,
    elliptic_involution,
    extend_affinity,
    group_closure,
    identity_perm,
    induced_permutation,
    invert_perm,
    point_map,
    stabilizer_of,
    verify_extension_formula,
)


def perms_of(n):
    return st.permutations(range(n)).map(tuple)


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def image(c, p):
    """The image of point p under c: its row vector times the matrix c."""
    return PLANE.point_from_vec(
        tuple(sum(x * row[j] for x, row in zip(p.rep, c)) % 3 for j in range(3))
    )


def preserves_blocks(m, perm):
    """Whether perm maps the block set onto itself, block by block."""
    return {tuple(sorted(perm[x] for x in b)) for b in m.local_blocks} == set(m.local_blocks)


def group_order(generators):
    """Order of the group the permutations generate, by Schreier's lemma
    down the base 0, 1, 2, ..."""
    return symmetry._generated_order(generators)


def orbit_of_0(generators):
    orbit = {0}
    while more := {g[x] for g in generators for x in orbit} - orbit:
        orbit |= more
    return orbit


# ---------------------------------------------------------------- collineations


def test_collineation_count(collineations):
    assert len(collineations) == 5616
    assert len(set(collineations)) == 5616


def test_collineations_are_the_nonsingular_canonical_matrices(collineations):
    # the gf3.det filter of the fixture against a test without any
    # elimination: a matrix is singular when some nonzero row vector maps
    # to zero.  Canonical: the first nonzero entry is 1; the order is
    # row-major after the leading zeros, symmetry._order
    flat = np.array(list(itertools.product(range(3), repeat=9)), dtype=np.int64)
    canonical = flat[flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)] == 1]
    vecs = np.array([v for v in itertools.product(range(3), repeat=3) if any(v)], dtype=np.int64)
    images = np.einsum("vi,mij->mvj", vecs, canonical.reshape(-1, 3, 3)) % 3
    kept = [tuple(int(x) for x in f) for f in canonical[~(images == 0).all(axis=2).any(axis=1)]]
    reference = [(f[0:3], f[3:6], f[6:9]) for f in sorted(kept, key=lambda f: (f.index(1), f))]
    assert list(collineations) == reference
    assert sorted(reference, key=symmetry._order) == reference


def test_point_maps_preserve_collinearity(collineations):
    rng = np.random.default_rng(7)
    for c in rng.choice(len(collineations), 40, replace=False):
        pm = point_map(collineations[c])
        for ln in PLANE.lines:
            image = [PLANE.points[pm[i]] for i in ln.points]
            assert collinear(*image[:3]) and collinear(*image[1:])


def test_point_maps_are_faithful(collineations):
    maps = {point_map(c) for c in collineations}
    assert len(maps) == 5616


def test_point_map_against_apply_vec(collineations):
    # the inline point map against a row-vector product, for every collineation
    for c in collineations:
        assert point_map(c) == tuple(image(c, p).index for p in PLANE.points)


@pytest.mark.parametrize("u", range(13))
def test_stabilizer_against_apply_point(collineations, u):
    p = PLANE.points[u]
    assert stabilizer_of(p) == tuple(c for c in collineations if image(c, p) == p)


def test_stabilizer_of_u(model, u_stabilizer):
    assert len(u_stabilizer) == 432
    for c in u_stabilizer:
        assert image(c, model.u) == model.u


@pytest.mark.parametrize("u", range(13))
def test_stabilizer_induces_design_automorphisms(u):
    m = construct(PLANE.points[u])
    perms = {induced_permutation(m, c) for c in stabilizer_of(PLANE.points[u])}
    assert len(perms) == 432  # faithful on W
    for p in perms:
        assert preserves_blocks(m, p)


def test_induced_permutation_requires_fixing_u(model, collineations):
    moving = next(c for c in collineations if image(c, model.u) != model.u)
    with pytest.raises(ValueError):
        induced_permutation(model, moving)


# ----------------------------------------------------------------- permutations


@given(perms_of(12))
def test_perm_inverse(p):
    assert compose_perm(p, invert_perm(p)) == identity_perm()
    assert compose_perm(invert_perm(p), p) == identity_perm()


@given(perms_of(6), perms_of(6), perms_of(6))
def test_perm_composition_associative(p, q, r):
    assert compose_perm(compose_perm(p, q), r) == compose_perm(p, compose_perm(q, r))


# ----------------------------------------------------------- automorphism group


def test_automorphism_count(autos):
    assert autos.shape == (95040, 12)
    rows = {tuple(int(x) for x in r) for r in autos}
    assert len(rows) == 95040


def test_every_listed_automorphism_preserves_blocks(model, autos):
    # independent vectorized re-check of all 95040 rows
    blocks = np.array(model.local_blocks, dtype=np.int64)
    weights = 12 ** np.arange(6, dtype=np.int64)
    expected = np.sort(np.sort(blocks, axis=1) @ weights)
    for chunk in np.array_split(np.asarray(autos, dtype=np.int64), 8):
        img = chunk[:, blocks]
        img.sort(axis=2)
        codes = img @ weights
        codes.sort(axis=1)
        assert (codes == expected).all()


def test_sharp_five_transitivity(autos, summary):
    assert summary.order == 95040 == 12 * 11 * 10 * 9 * 8
    prefixes = np.asarray(autos[:, :5], dtype=np.int64)
    codes = prefixes @ (12 ** np.arange(5, dtype=np.int64))
    assert len(np.unique(codes)) == 95040
    assert summary.sharply_5_transitive


def test_group_contains_the_stabilizer_image(model, autos, u_stabilizer):
    rows = {tuple(int(x) for x in r) for r in autos}
    for c in u_stabilizer:
        assert induced_permutation(model, c) in rows


def test_group_closed_under_composition(autos):
    rows = {tuple(int(x) for x in r) for r in autos}
    rng = np.random.default_rng(11)
    idx = rng.integers(0, len(autos), size=(60, 2))
    for i, j in idx:
        p = tuple(int(x) for x in autos[i])
        q = tuple(int(x) for x in autos[j])
        assert compose_perm(p, q) in rows
        assert invert_perm(p) in rows


def test_generators_regenerate_the_group(summary, autos):
    closure = group_closure(summary.generators)
    assert len(closure) == 95040
    rows = {tuple(int(x) for x in r) for r in autos}
    assert closure == rows


def test_generators_are_pinned(summary):
    # the first generating pair among the coset leaders of point 0, at U = #4
    assert summary.generators == (
        (1, 0, 2, 3, 4, 5, 9, 8, 7, 6, 11, 10),
        (7, 0, 1, 2, 3, 11, 4, 10, 9, 8, 5, 6),
    )


# sha256 of repr() of the sorted rows as a list of int tuples, indexed
# by U, pinned from the output of the 95040-prefix forcing sweep
ALL_AUTOMORPHISMS_DIGESTS = [
    "4ddf2a38fe42cd5e59aeb3147fb861770dcfc511460dfe2ed4d073916496cc43",
    "45c6961b6d40b8e91bea90f364dd19ec5b7b3469d3e73976375bb32b266178d1",
    "b81996ffa53c7ada4f4c35e0a02dfa2b009a63862a929e96c48f51cae4206207",
    "63876ffbcc7bdbd0ac111fa3081c7d4943966b12508ada9ea2c448042e04fcea",
    "3869c92919484e22c9bb46df607f8839ff2c5cd80f747e285616a13f195f33fb",
    "2a66ad556a567a83eb848523648be2bf4e6e45d5973f576154f908abfe8ed82f",
    "b70aa11def44c225c76c282ed47c1964e44421f44e7d2738ad9d16a1c53d6818",
    "542b60b8268ce712d5dcb27894232dce6c24dd305633b4ebdbd7877e174684ed",
    "ec19bb7882c4ef6d99e46ec5d39fe82d53407414e561c3da58a697557172fdde",
    "9a342291b2b29426f43b28b9b711a7d0e4f948a17685635164d2b44eaade9142",
    "17e88c5b2a9bdb84163f5e17fcdc55ed1e1a7c8994e42d53b230a569a1a1f377",
    "f8444e1ec2fc7af7b1cf4f592952a0ecee3a6c998834d8e8e9d9f96b70348e0a",
    "86a0bf9587b4e4a71e75a19c384aff4c88a8adcf9ad8bd7c080936e83b665c49",
]


@pytest.mark.parametrize("u", range(13))
def test_all_automorphisms_are_pinned(u):
    rows = symmetry.all_automorphisms(construct(PLANE.points[u]))
    text = repr([tuple(int(x) for x in r) for r in rows])
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_AUTOMORPHISMS_DIGESTS[u]


def test_generating_pair_is_required(model, monkeypatch):
    # an order that is never reached: no pair of coset leaders generates the group
    monkeypatch.setattr(symmetry, "_generated_order", lambda gens: 1)
    with pytest.raises(InvariantError, match="^no generating pair among the coset leaders"):
        symmetry.automorphism_group(model)


@pytest.mark.parametrize("u", range(13))
def test_generators_are_the_first_leader_pair_of_full_order(u):
    # the full order is taken from the closure inside the listed group,
    # not from the routine that automorphism_group runs
    m = construct(PLANE.points[u])
    ambient = symmetry.all_automorphisms(m)
    pairs = itertools.combinations(symmetry._chain(m)[0][1:], 2)
    expected = next(p for p in pairs if closure_order(p, ambient) == 95040)
    assert symmetry.automorphism_group(m).generators == expected


def test_a_transitive_proper_subgroup_is_rejected_by_schreier_sims():
    # at U = #7 the first three leader pairs are intransitive on W and the
    # fourth is transitive but generates a group of order 7920: only the
    # order tells it from the fifth, which generates the whole group
    m = construct(PLANE.points[7])
    ambient = symmetry.all_automorphisms(m)
    pairs = list(itertools.combinations(symmetry._chain(m)[0][1:], 2))
    assert symmetry.automorphism_group(m).generators == pairs[4]
    for pair in pairs[:3]:
        assert len(orbit_of_0(pair)) < 12
        assert group_order(pair) == closure_order(pair, ambient) < 95040
    assert len(orbit_of_0(pairs[3])) == 12
    assert group_order(pairs[3]) == closure_order(pairs[3], ambient) == 7920


def test_automorphism_group_never_closes(monkeypatch):
    calls = []
    closure = symmetry.group_closure
    monkeypatch.setattr(symmetry, "group_closure", lambda gens: calls.append(gens) or closure(gens))
    assert symmetry.automorphism_group(construct(PLANE.points[9])).order == 95040
    assert calls == []


# ------------------------------------------------------------ Schreier's lemma


def closure_order(generators, ambient):
    """Order of the group the generators make, by a breadth-first search
    over (n, degree) arrays: group_closure vectorised.  ambient is the
    lexicographically sorted row array of a group containing them, and
    membership is a searchsorted into its integer keys."""
    ambient = np.asarray(ambient, dtype=np.int64)
    degree = ambient.shape[1]
    weights = degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    keys = ambient @ weights
    assert (np.diff(keys) > 0).all(), "ambient rows must be sorted and distinct"

    def index(rows):
        k = rows @ weights
        i = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        assert (keys[i] == k).all(), "a product left the ambient group"
        return i

    gens = [np.array(g, dtype=np.int64) for g in generators]
    seen = np.zeros(len(keys), dtype=bool)
    frontier = index(np.arange(degree, dtype=np.int64)[None, :])
    seen[frontier] = True
    while len(frontier):
        rows = ambient[frontier]
        new = np.zeros_like(seen)
        for g in gens:
            new[index(g[rows])] = True  # g[rows]: each row, then g (compose_perm)
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return int(seen.sum())


@pytest.mark.parametrize("u", (4, 9))
def test_group_order_of_every_leader_pair(u):
    m = construct(PLANE.points[u])
    ambient = np.array(symmetry.all_automorphisms(m))
    for pair in itertools.combinations(symmetry._chain(m)[0][1:], 2):
        assert group_order(pair) == closure_order(pair, ambient)


@given(st.integers(1, 7).flatmap(lambda n: st.lists(perms_of(n), min_size=1, max_size=3)))
def test_group_order_of_random_subgroups(gens):
    ambient = np.array(list(itertools.permutations(range(len(gens[0])))))
    assert group_order(gens) == len(group_closure(gens)) == closure_order(gens, ambient)


@pytest.mark.parametrize("seed", range(12))
def test_group_order_of_random_subgroups_of_the_automorphism_group(autos, seed):
    # one to three automorphisms at U = #4, not a leader pair: subgroups
    # of orders 2 to 95040 on 12 points, where the draws from S_n (n <= 7)
    # above never go
    rng = random.Random(seed)
    gens = [tuple(int(x) for x in autos[i]) for i in rng.sample(range(len(autos)), rng.randint(1, 3))]
    assert group_order(gens) == closure_order(gens, autos)


def test_group_order_of_s12_and_a12():
    cycle = tuple(range(1, 12)) + (0,)
    swap = (1, 0) + tuple(range(2, 12))
    assert group_order([cycle, swap]) == math.factorial(12)
    # the 3-cycles (0 1 k) generate the alternating group
    three_cycles = [tuple({0: 1, 1: k, k: 0}.get(x, x) for x in range(12)) for k in range(2, 12)]
    assert group_order(three_cycles) == math.factorial(12) // 2


def test_group_order_adds_strong_generators_at_every_level(autos):
    # coset leaders 1 and 6 of point 0 at U = #4: down the base 0..3,
    # _generated_order finds orbits of 10, 9, 8 and 2 points from 2, 8, 14
    # and 1 generators, each level's from the Schreier generators of the
    # level above, and 10 * 9 * 8 * 2 = 1440
    pair = (
        (1, 0, 2, 3, 4, 5, 9, 8, 7, 6, 11, 10),
        (6, 0, 1, 2, 3, 9, 8, 4, 7, 5, 10, 11),
    )
    assert len(group_closure(pair)) == 1440
    assert closure_order(pair, autos) == 1440
    assert group_order(pair) == 1440


def test_engine_completes_a_frame_to_the_listed_automorphisms(model, autos):
    # frame completion from another frame reaches the same rows as the
    # whole-group enumeration from positions 0..4
    frame = (11, 3, 7, 0, 5)
    rows = np.asarray(autos[::997], dtype=np.int16)
    completed = complete_maps(model.sixth, model.local_blocks, frame, rows[:, list(frame)])
    assert (completed == rows).all()


def test_engine_rejects_repeated_points(model):
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 3), [[0, 1, 2, 3, 4]])
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 4), [[0, 1, 2, 3, 3]])
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 4), [[0, 1, 2, 3, 12]])
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 4, 99), [[0, 1, 2, 3, 4]])
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 4, 5), [[0, 1, 2, 3, 4]])
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 4), [[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        complete_maps(model.sixth, model.local_blocks, (0, 1, 2, 3, 4), [[0, 1, 2, 3, 4, 5]])


@pytest.mark.parametrize(
    "perm",
    [
        (*range(11), 0),  # a repeated image
        (1, 1, *range(2, 12)),
        (*range(11), 12),  # an image past 11
        (12, *range(1, 12)),
        (*range(11), -1),  # a negative image, which has no bit
        (-1, *range(1, 12)),
    ],
)
def test_a_non_permutation_is_not_an_automorphism(model, perm):
    assert preserves_blocks(model, perm) is False


def test_non_automorphism_is_rejected(model):
    # swapping two points inside one block but not its partner blocks
    p = list(identity_perm())
    p[0], p[1] = p[1], p[0]
    candidates = [identity_perm(), tuple(p)]
    assert preserves_blocks(model, candidates[0])
    # a transposition fixing 10 points cannot be an automorphism: the
    # group is sharply 5-transitive, so only the identity fixes 5 points
    assert not preserves_blocks(model, candidates[1])


# -------------------------------------------------------------------- affinities


def test_affinity_count_for_every_line():
    for g in PLANE.lines:
        assert len(affinities(g)) == 432


def affine_lines_of(g):
    pts = tuple(p.index for p in PLANE.points if p.index not in g.points)
    pos = {p: i for i, p in enumerate(pts)}
    return [
        tuple(sorted(pos[x] for x in ln.points if x in pos))
        for ln in PLANE.lines
        if ln.index != g.index
    ]


@pytest.fixture(scope="module")
def all_perms9():
    return np.array(list(itertools.permutations(range(9))), dtype=np.int8)


# lines #0 and #1 are the two residue shapes the forced search meets: in
# the residue of #0 the fourth point branches and every later one is
# forced, in that of #1 the fifth point branches too
@pytest.mark.parametrize("k", [0, 1])
def test_affinities_against_full_permutation_scan(all_perms9, k):
    g = PLANE.lines[k]
    lines = np.array(affine_lines_of(g), dtype=np.int8)
    assert lines.shape == (12, 3)
    perms = all_perms9
    img = perms[:, lines]
    img.sort(axis=2)
    codes = img.astype(np.int32) @ np.array([81, 9, 1], dtype=np.int32)
    line_codes = np.sort(lines, axis=1).astype(np.int32) @ np.array(
        [81, 9, 1], dtype=np.int32
    )
    ok = np.isin(codes, line_codes).all(axis=1)
    assert int(ok.sum()) == 432
    found = {tuple(int(x) for x in p) for p in perms[ok]}
    assert found == set(affinities(g))


def test_affinities_form_a_group(lines_through_u):
    g = lines_through_u[1]
    af = set(affinities(g))
    assert identity_perm(9) in af
    some = sorted(af)[100:104]
    for a, b in itertools.product(some, repeat=2):
        assert compose_perm(a, b) in af


# ------------------------------------------------------------ involutions, remark


def test_elliptic_involution(model, lines_through_u):
    g = lines_through_u[0]
    others = [i for i in g.points if i != model.u.index]
    for xi in others:
        inv = elliptic_involution(g, PLANE.points[xi], model.u)
        assert set(inv) == set(g.points)
        for a, b in inv.items():
            assert a != b and inv[b] == a
        assert inv[model.u.index] == xi
    with pytest.raises(ValueError):
        elliptic_involution(g, PLANE.points[12], model.u)
    with pytest.raises(ValueError):
        elliptic_involution(g, model.u, model.u)


def test_elliptic_involution_messages(model, lines_through_u):
    g = lines_through_u[0]
    off = next(p for p in PLANE.points if p.index not in g.points)
    with pytest.raises(ValueError, match="^both points must lie on the line$"):
        elliptic_involution(g, off, model.u)
    with pytest.raises(ValueError, match="^both points must lie on the line$"):
        elliptic_involution(g, model.u, off)
    with pytest.raises(ValueError, match="^the two swapped points must differ$"):
        elliptic_involution(g, model.u, model.u)


def test_extend_identity_affinity(model, lines_through_u):
    g = lines_through_u[0]
    kappa, beta = extend_affinity(model, g, identity_perm(9))
    assert kappa == IDENTITY
    assert beta == identity_perm()


def test_extend_affinity_rejects_non_affinities(model, lines_through_u):
    g = lines_through_u[0]
    af = set(affinities(g))
    bad = next(
        p for p in itertools.permutations(range(9)) if tuple(p) not in af
    )
    with pytest.raises(ValueError):
        extend_affinity(model, g, tuple(bad))


def test_extend_affinity_input_messages(model, lines_through_u):
    off = next(g for g in PLANE.lines if model.u.index not in g.points)
    with pytest.raises(ValueError, match="^the line must pass through U$"):
        extend_affinity(model, off, identity_perm(9))
    for alpha in ((0,) * 9, identity_perm(8), identity_perm(10)):
        with pytest.raises(ValueError, match=r"^alpha must be a permutation of 0\.\.8$"):
            extend_affinity(model, lines_through_u[0], alpha)


def test_extend_affinity_against_the_whole_group(model, lines_through_u, autos):
    # the beta from five forced images is the one row of the full
    # enumeration that restricts to alpha on the nine affine points
    weights = 12 ** np.arange(9, dtype=np.int64)
    for g in lines_through_u:
        wpos = [model.w_position[p.index] for p in PLANE.points if p.index not in g.points]
        codes = np.asarray(autos[:, wpos], dtype=np.int64) @ weights
        for alpha in affinities(g):
            _, beta = extend_affinity(model, g, alpha)
            code = np.array([wpos[a] for a in alpha], dtype=np.int64) @ weights
            (match,) = np.nonzero(codes == code)
            assert len(match) == 1
            assert tuple(int(x) for x in autos[match[0]]) == beta


def test_extend_affinity_at_another_u():
    m0 = construct(PLANE.points[0])
    g = next(g for g in PLANE.lines if 0 in g.points and 4 not in g.points)
    pts = [p.index for p in PLANE.points if p.index not in g.points]
    for alpha in affinities(g)[::37]:
        kappa, beta = extend_affinity(m0, g, alpha)
        assert preserves_blocks(m0, beta)
        pm = point_map(kappa)
        for i, p in enumerate(pts):
            assert pm[p] == pts[alpha[i]]
            assert m0.w[beta[m0.w_position[p]]] == pts[alpha[i]]
    _, beta = extend_affinity(m0, g, identity_perm(9))
    assert beta == identity_perm()


def test_remark3_never_enumerates_the_group(model, lines_through_u, monkeypatch):
    def refuse(m):
        raise AssertionError("the whole group was enumerated")

    monkeypatch.setattr(symmetry, "all_automorphisms", refuse)
    g = lines_through_u[2]
    assert extend_affinity(model, g, identity_perm(9))[1] == identity_perm()
    assert verify_extension_formula(model, g).failures == ()


def test_two_completions_of_one_image_row_raise(lines_through_u, monkeypatch):
    # a fresh model each time, so no certified chain is cached for it
    engine = symmetry.complete_maps
    monkeypatch.setattr(symmetry, "complete_maps", lambda *a: [r for r in engine(*a) for _ in (0, 1)])
    with pytest.raises(AssertionError):
        extend_affinity(construct(), lines_through_u[0], identity_perm(9))
    with pytest.raises(AssertionError):
        symmetry.automorphism_group(construct())
    # and a frame that completes to nothing
    monkeypatch.setattr(symmetry, "complete_maps", lambda *a: engine(*a)[1:])
    with pytest.raises(AssertionError):
        extend_affinity(construct(), lines_through_u[0], identity_perm(9))
    with pytest.raises(AssertionError):
        symmetry.automorphism_group(construct())


def swap_later_carriers(model, g, monkeypatch):
    """Corrupt every carrier after the first: the extension of an affinity
    of g's residue then disagrees with it off the five-point frame."""
    wpos = [model.w_position[p.index] for p in PLANE.points if p.index not in g.points]
    swap = {wpos[5]: wpos[6], wpos[6]: wpos[5]}  # affine points outside the frame
    carrier = symmetry._carrier
    calls = []

    def swapped(chain, images):
        # the frame's own carrier comes first; every later one sends two
        # points to each other's images
        calls.append(images)
        c = carrier(chain, images)
        return c if len(calls) == 1 else tuple(swap.get(x, x) for x in c)

    monkeypatch.setattr(symmetry, "_carrier", swapped)


def test_completion_disagreeing_off_the_frame_is_a_failure(model, lines_through_u, monkeypatch):
    g = lines_through_u[0]
    swap_later_carriers(model, g, monkeypatch)
    report = verify_extension_formula(model, g)
    assert report.checks == 0
    assert len(report.failures) == 432
    assert all(f[1:] == (None, None, None) for f in report.failures)


def test_extend_affinity_raises_when_no_automorphism_agrees(model, lines_through_u, monkeypatch):
    g = lines_through_u[0]
    swap_later_carriers(model, g, monkeypatch)
    with pytest.raises(InvariantError, match="^no design automorphism extends the affinity$"):
        extend_affinity(model, g, identity_perm(9))


@pytest.mark.parametrize("g", range(13))
def test_line_collineations_are_keyed_by_every_affinity(g):
    line = PLANE.lines[g]
    table = symmetry._line_collineations(line)
    assert len(table) == 432
    assert set(table) == set(affinities(line))
    pts = [p.index for p in PLANE.points if p.index not in line.points]
    for alpha, (kappa, pm) in table.items():
        assert pm == point_map(kappa)
        assert {pm[x] for x in line.points} == set(line.points)
        assert tuple(pts.index(pm[x]) for x in pts) == alpha


@pytest.fixture()
def fresh_line_collineations():
    symmetry._line_collineations.cache_clear()
    yield
    symmetry._line_collineations.cache_clear()


@pytest.fixture()
def fresh_residues():
    symmetry._residue.cache_clear()
    symmetry._line_collineations.cache_clear()
    yield
    symmetry._residue.cache_clear()
    symmetry._line_collineations.cache_clear()


def test_remark3_builds_each_residue_once(model, lines_through_u, monkeypatch, fresh_residues):
    # affinities, the collineation table and the extensions all read
    # g's one cached residue
    calls = []
    residue = symmetry.affine_residue
    monkeypatch.setattr(symmetry, "affine_residue", lambda plane, g: calls.append(g.index) or residue(plane, g))
    g = lines_through_u[1]
    assert verify_extension_formula(model, g).failures == ()
    assert extend_affinity(model, g, identity_perm(9))[1] == identity_perm()
    assert calls == [g.index]


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_a_missing_or_repeated_collineation_raises(
    model, lines_through_u, monkeypatch, fresh_line_collineations, change
):
    # with one non-identity collineation fixing g dropped, its affinity
    # has no extension; with one repeated, kappa is no longer unique
    g = lines_through_u[0]
    full = symmetry._fixing(g.dual)
    i, mx = next((i, mx) for i, mx in enumerate(full) if mx != IDENTITY)
    edited = full[:i] + full[i + 1:] if change == "drop" else full + [mx]
    monkeypatch.setattr(symmetry, "_fixing", lambda n: edited)
    with pytest.raises(AssertionError):
        verify_extension_formula(model, g)


def test_extension_formula_on_every_line(model, lines_through_u):
    for g in lines_through_u:
        report = verify_extension_formula(model, g)
        assert report.alpha_count == 432
        assert report.checks == 1296
        assert report.failures == ()
        assert report.divergences >= 1
        assert report.divergence_example is not None


def test_extension_formula_requires_line_through_u(model):
    off = next(g for g in PLANE.lines if model.u.index not in g.points)
    with pytest.raises(ValueError):
        verify_extension_formula(model, off)


def test_extension_formula_message_for_a_line_off_u(model):
    off = next(g for g in PLANE.lines if model.u.index not in g.points)
    with pytest.raises(ValueError, match="^the line must pass through U$"):
        verify_extension_formula(model, off)
