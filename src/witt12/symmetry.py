"""Collineations of the plane and the automorphism group of the design.

Collineations are invertible 3x3 matrices over GF(3) modulo scalars
(the field is prime, so there is nothing semilinear to add), acting on
row vectors.  A collineation is held as its canonical matrix, the one
whose first nonzero entry in row-major order is 1.  The collineations
fixing a point or a line are enumerated directly (_fixing), 432 each,
never filtered out of all 5616: the stabilizer of U, and the
collineations fixing a line g, among which the kappa extending an
affinity of g's residue (Remark 3) is the only one with the affinity's
restriction; that uniqueness is checked on every run.

The design S(5,6,12) and each line's affine residue AG(2,3), an
S(2,3,9), are Steiner systems with one block over each t-set, and both
go through the one engine checks.complete_maps with their completion
tables: the design's sixth-point table WittModel.sixth, and the residue's
third-point table.  Completing 46 frames of five W-positions gives a
certified stabilizer chain of positions 0..4, proving the group sharply
5-transitive of order 12*11*10*9*8; products along the chain list the
group, and five look-ups give the automorphism extending an affinity
(Remark 3).  The reported generating pair is certified against the
chain's order by Schreier's lemma down the base 0, 1, 2, ...: the order
of a pair's group is the product of its basic orbit lengths, and the
pair generates the whole group when that product is the chain's order.
The affinities of a residue are the engine's completions of the empty
frame.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import prod
from operator import itemgetter
from typing import Sequence

from .checks import InvariantError, Record, affine_residue, complete_maps, completion_table, require
from .design import WittModel
from .gf3 import MOD, dot
from .plane import PLANE, ProjLine, ProjPoint

Perm = tuple[int, ...]

Matrix3 = tuple[tuple[int, int, int], ...]


_REPS = tuple(p.rep for p in PLANE.points)


def point_map(mx: Matrix3) -> tuple[int, ...]:
    """Images of all 13 points, by index, read off all 26 nonzero vectors."""
    (a, b, c), (d, e, f), (g, h, i) = mx
    index_of = PLANE.index_of
    return tuple(
        index_of[(x * a + y * d + z * g) % MOD, (x * b + y * e + z * h) % MOD, (x * c + y * f + z * i) % MOD]
        for x, y, z in _REPS
    )


def _order(mx: Matrix3) -> tuple:
    # row-major order: leading zeros of the (canonical) first row, then the entries
    return mx[0].index(1), mx


def _fixing(n: Sequence[int]) -> list[Matrix3]:
    """The canonical matrices with rows r1, r2, r3 such that (r1.n, r2.n,
    r3.n) is n or 2n, that is, mapping the column vector n to a multiple
    of itself: 432 for a nonzero n."""
    by_dot = {c: [v for v in product(range(MOD), repeat=3) if dot(v, n) == c] for c in range(MOD)}
    out = []
    for k in (1, 2):
        first, *rest = (by_dot[k * x % MOD] for x in n)
        canonical = [v for v in first if (v[0] or v[1] or v[2]) == 1]  # first nonzero entry 1
        for mx in product(canonical, *rest):
            (a, b, c), (d, e, f), (g, h, i) = mx
            if (a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)) % MOD:  # nonsingular
                out.append(mx)
    return out


def stabilizer_of(p: ProjPoint) -> tuple[Matrix3, ...]:
    """The canonical matrices of all collineations fixing the given
    point, in row-major order: the transposes of the matrices fixing
    p.rep as a column vector, re-canonicalised."""
    out = []
    for mx in _fixing(p.rep):
        tr = tuple(zip(*mx))
        lead = tr[0][0] or tr[0][1] or tr[0][2]  # first nonzero entry
        out.append(tr if lead == 1 else tuple(tuple(2 * x % MOD for x in r) for r in tr))
    return tuple(sorted(out, key=_order))


def induced_permutation(m: WittModel, mx: Matrix3) -> Perm:
    """Restriction of a U-fixing collineation to W, in local coordinates."""
    pm = point_map(mx)
    if pm[m.u.index] != m.u.index:
        raise ValueError("collineation does not fix U")
    return tuple(m.w_position[pm[i]] for i in m.w)


def identity_perm(n: int = 12) -> Perm:
    return tuple(range(n))


def compose_perm(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    # itemgetter of one index returns the item, not a 1-tuple
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[x] for x in p)


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@lru_cache(maxsize=13)
def _chain(m: WittModel) -> tuple[tuple[Perm, ...], ...]:
    """Stabilizer chain of positions 0..4, certified by the forcing engine.

    Level i holds, for k = i..11, the completion of (0..i-1, k, the 4-i
    smallest unused points).  Each of the 46 distinct rows must complete
    to exactly one automorphism.  The engine is exhaustive, so the
    identity row proves the pointwise stabilizer of 0..4 trivial and
    level i proves the stabilizer of 0..i-1 transitive on the other 12-i
    points: |Aut| = 12*11*10*9*8 and Aut is sharply 5-transitive.
    """
    wanted = [
        [(*range(i), k, *[x for x in range(i, 12) if x != k][: 4 - i]) for k in range(i, 12)]
        for i in range(5)
    ]
    rows = list(dict.fromkeys(r for level in wanted for r in level))
    completed = complete_maps(m.sixth, m.local_blocks, range(5), rows)
    if [p[:5] for p in completed] != rows:
        raise InvariantError("a chain frame does not complete to exactly one automorphism")
    by_images = dict(zip(rows, completed))
    return tuple(tuple(by_images[r] for r in level) for level in wanted)


def _carrier(chain: Sequence[Sequence[Perm]], images: Sequence[int]) -> Perm:
    """The chain's product sending positions 0..4 to the five images."""
    g = identity_perm()
    for i, x in enumerate(images):
        # g sends 0..i-1 to the first i images; prepend the level-i
        # element (fixing 0..i-1) that sends i to g's preimage of x
        g = compose_perm(chain[i][g.index(x) - i], g)
    return g


def all_automorphisms(m: WittModel) -> list[Perm]:
    """Every permutation of W preserving the block set, sorted: each is
    one product of the chain's levels, u4 applied first and u0 last."""
    out = [identity_perm()]
    for level in reversed(_chain(m)):
        out = [compose_perm(p, u) for u in level for p in out]
    return sorted(out)


def group_closure(generators: Sequence[Perm]) -> set[Perm]:
    """The subgroup generated by the given permutations (orbit of products)."""
    if not generators:
        return {identity_perm()}
    ident = identity_perm(len(generators[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = compose_perm(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _generated_order(generators: Sequence[Perm]) -> int:
    """The order of the group the permutations generate, by Schreier's
    lemma down the base 0, 1, 2, ...: the order of the group fixing
    0..b-1 is the length of b's orbit times the order of b's stabilizer,
    which the Schreier generators u_x s u_{s[x]}^-1 generate (s a
    generator, u_x the transversal element sending b to x).  Every
    Schreier generator is kept, unsifted, so this is meant for small
    groups, such as the subgroups of the design's automorphism group,
    whose stabilizer of 0..4 is trivial.
    """
    ident = identity_perm(len(generators[0]))
    gens = set(generators) - {ident}
    order, b = 1, 0
    while gens:
        reps = {b: ident}  # reps[x] sends b to x
        orbit = [b]
        for x in orbit:
            for s in gens:
                if s[x] not in reps:
                    reps[s[x]] = compose_perm(reps[x], s)
                    orbit.append(s[x])
        order *= len(orbit)
        inverse = {x: invert_perm(u) for x, u in reps.items()}
        gens = {compose_perm(compose_perm(reps[x], s), inverse[s[x]]) for x in orbit for s in gens} - {ident}
        b += 1
    return order


class GroupSummary(Record):
    order: int
    generators: tuple[Perm, ...]
    sharply_5_transitive: bool


def automorphism_group(m: WittModel) -> GroupSummary:
    """Order, a small generating set, and the sharp 5-transitivity
    certificate of the design's automorphism group, from the chain."""
    chain = _chain(m)
    order = prod(len(level) for level in chain)
    # the level-0 rows are the lexicographically least automorphism with
    # each image of point 0; the first pair whose group has the chain's
    # order, by Schreier's lemma down the base 0, 1, 2, ..., is the whole group
    for pair in combinations(chain[0][1:], 2):
        if _generated_order(pair) == order:
            return GroupSummary(order, pair, order == 12 * 11 * 10 * 9 * 8)
    raise InvariantError("no generating pair among the coset leaders: invariant broken")


def elliptic_involution(g: ProjLine, x: ProjPoint, u: ProjPoint) -> dict[int, int]:
    """The fixed-point-free involution of g's four points swapping x and u."""
    on_g = set(g.points)
    if x.index not in on_g or u.index not in on_g:
        raise ValueError("both points must lie on the line")
    if x.index == u.index:
        raise ValueError("the two swapped points must differ")
    y, z = sorted(on_g - {x.index, u.index})
    return {x.index: u.index, u.index: x.index, y: z, z: y}


@lru_cache(maxsize=13)
def _residue(g: ProjLine) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], dict[int, int]]:
    """g's 9 off-line points, its 12 cut lines in their positions 0..8,
    and their completion table: the third point of the cut line through two."""
    residue = affine_residue(PLANE, g)
    pos = {p: i for i, p in enumerate(residue.points)}
    lines = tuple(tuple(pos[x] for x in ln) for ln in residue.blocks)
    return residue.points, lines, completion_table(lines, 9, 2)


def affinities(g: ProjLine) -> tuple[Perm, ...]:
    """All permutations of the 9 off-line points preserving the 12 cut
    lines, sorted: the engine's completions of the empty frame, which
    branch over the images of three non-collinear points (9*8*6)."""
    _, lines, table = _residue(g)
    return tuple(sorted(complete_maps(table, lines, (), [()])))


@lru_cache(maxsize=13)
def _line_collineations(g: ProjLine) -> dict[Perm, tuple[Matrix3, Perm]]:
    """The collineations fixing g, keyed by their restriction to g's
    affine residue (positions 0..8, as in affinities), with point maps.

    A matrix fixes g exactly when it maps g's dual vector n, as a
    column, to a multiple of itself: the 432 matrices of _fixing(n).
    No two may share a restriction, so each affinity has at most one
    extension to a collineation.
    """
    pts = _residue(g)[0]
    pos = [pts.index(p) if p in pts else -1 for p in range(13)]
    fixing = _fixing(g.dual)
    at_pts = itemgetter(*pts)
    table = {}
    for mx in fixing:
        pm = point_map(mx)
        table[itemgetter(*at_pts(pm))(pos)] = (mx, pm)
    require(len(table) == len(fixing), "two collineations restrict to one affinity")
    return table


def _extensions(
    m: WittModel, g: ProjLine, alphas: Sequence[Perm]
) -> list[tuple[Matrix3, Perm, Perm | None]]:
    """For each affinity of g's residue: the collineation kappa extending
    it, kappa's point map, and the automorphism sending the first five
    affine points to their images, or None unless it agrees on all nine."""
    wpos = tuple(m.w_position[p] for p in _residue(g)[0])
    at_wpos = itemgetter(*wpos)
    table = _line_collineations(g)
    chain = _chain(m)
    to_frame = invert_perm(_carrier(chain, wpos[:5]))
    out = []
    for alpha in alphas:
        w = tuple(wpos[a] for a in alpha)
        require(alpha in table, "no collineation extends the affinity")
        kappa, pm = table[alpha]
        beta = compose_perm(to_frame, _carrier(chain, w[:5]))
        out.append((kappa, pm, beta if at_wpos(beta) == w else None))
    return out


def extend_affinity(m: WittModel, g: ProjLine, alpha: Perm) -> tuple[Matrix3, Perm]:
    """The canonical matrix of the unique collineation extending an
    affinity, and the design automorphism extending it.

    alpha maps positions 0..8 of the off-line points (ascending plane
    index) to positions.  Raises ValueError when alpha does not preserve
    the cut lines or when the model's U is off the line.
    """
    if m.u.index not in g.points:
        raise ValueError("the line must pass through U")
    if sorted(alpha) != list(range(9)):
        raise ValueError("alpha must be a permutation of 0..8")
    _, lines, table = _residue(g)
    if any(table[1 << alpha[x] | 1 << alpha[y]] != alpha[z] for x, y, z in lines):
        raise ValueError("alpha does not preserve the cut lines")
    ((kappa, _, beta),) = _extensions(m, g, [alpha])
    if beta is None:
        raise InvariantError("no design automorphism extends the affinity")
    return kappa, beta


class ExtensionReport(Record):
    """Sweep result for one line through U.

    checks counts (alpha, X) pairs tested against the involution
    identity; divergences counts pairs where the collineation and the
    design automorphism move X differently (both are still correct).
    """

    line_index: int
    alpha_count: int
    checks: int
    failures: tuple[tuple, ...]
    divergences: int
    divergence_example: tuple | None


def verify_extension_formula(m: WittModel, g: ProjLine) -> ExtensionReport:
    """For every affinity of the residue of g, check X^beta against the
    conjugated involution U^(kappa^-1 gamma_X kappa) for the three
    points X of g other than U."""
    u = m.u.index
    if u not in g.points:
        raise ValueError("the line must pass through U")
    alphas = affinities(g)
    others = sorted(set(g.points) - {u})
    gammas = [elliptic_involution(g, PLANE.points[x], m.u) for x in others]
    failures: list[tuple] = []
    divergences = 0
    example = None
    checks = 0
    for alpha, (_, pm, beta) in zip(alphas, _extensions(m, g, alphas)):
        if beta is None:
            failures.append((alpha, None, None, None))
            continue
        u_pre = pm.index(u)
        for x, gamma in zip(others, gammas):
            rhs = pm[gamma[u_pre]]
            lhs = m.w[beta[m.w_position[x]]]
            checks += 1
            if lhs != rhs:
                failures.append((alpha, x, lhs, rhs))
            if pm[x] != lhs:
                divergences += 1
                if example is None:
                    example = (alpha, x, pm[x], lhs)
    return ExtensionReport(
        line_index=g.index,
        alpha_count=len(alphas),
        checks=checks,
        failures=tuple(failures),
        divergences=divergences,
        divergence_example=example,
    )
