"""Collineations of the plane and the automorphism group of the design.

Collineations are invertible 3x3 matrices over GF(3) modulo scalars
(the field is prime, so there is nothing semilinear to add), acting on
row vectors.  Canonical representative: first nonzero entry 1 in
row-major order.  The collineations fixing a point or a line are
enumerated directly (_fixing), 432 each, never filtered out of all
5616: the stabilizer of U, and the collineations fixing a line g, among
which the kappa extending an affinity of g's residue (Remark 3) is the
only one with the affinity's restriction; that uniqueness is checked on
every run.

The design S(5,6,12) and each line's affine residue AG(2,3), an
S(2,3,9), are Steiner systems with one block over each t-set, and both
go through the one engine checks.complete_maps with their completion
tables: the design's sixth-point table WittModel.sixth, and the residue's
third-point table.  Completing 46 frames of five W-positions gives a
certified stabilizer chain of positions 0..4, proving the group sharply
5-transitive of order 12*11*10*9*8; products along the chain list the
group, and five look-ups give the automorphism extending an affinity
(Remark 3).  The reported generating pair is certified against the
chain's order.  The chain proves the group transitive, so a pair whose
orbit of one point misses another generates a proper subgroup and is
skipped.  For the others a deterministic Schreier-Sims stops once its
product of basic orbit lengths, a lower bound on the order of the
pair's group, reaches the chain's order: then the pair generates the
whole group.  The affinities of a residue are the engine's completions
of the empty frame.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .checks import InvariantError, Record, affine_residue, complete_maps, completion_table, require
from .design import WittModel
from .gf3 import MOD, dot, vec_scale
from .plane import PLANE, ProjLine, ProjPoint

Perm = tuple[int, ...]

Matrix3 = tuple[tuple[int, int, int], ...]


class Collineation(Record):
    """Invertible matrix mod scalars; first nonzero entry is 1."""

    matrix: Matrix3

    def point_map(self) -> tuple[int, ...]:
        """Images of all 13 points, by index, read off all 26 nonzero vectors."""
        (a, b, c), (d, e, f), (g, h, i) = self.matrix
        return tuple(
            _POINT_OF[(x * a + y * d + z * g) % MOD, (x * b + y * e + z * h) % MOD, (x * c + y * f + z * i) % MOD]
            for x, y, z in _REPS
        )


_REPS = tuple(p.rep for p in PLANE.points)
_POINT_OF = {vec_scale(c, v): i for i, v in enumerate(_REPS) for c in (1, 2)}


@lru_cache(maxsize=1)
def _matrices() -> tuple[Matrix3, ...]:
    """All 5616 canonical matrices in row-major order: a canonical first
    row, then each row off the span of the rows above: r2 has a nonzero
    cross product n with r1, and r3 a nonzero dot product with n."""
    vecs = list(product(range(MOD), repeat=3))
    off = {n: [v for v in vecs if dot(n, v)] for n in vecs}
    out = []
    for r1 in sorted(_REPS, key=lambda v: (v.index(1), v)):
        a, b, c = r1
        for r2 in vecs:
            d, e, f = r2
            n = ((b * f - c * e) % MOD, (c * d - a * f) % MOD, (a * e - b * d) % MOD)
            out.extend((r1, r2, r3) for r3 in off[n])
    return tuple(out)


def all_collineations() -> tuple[Collineation, ...]:
    """All 5616 collineations, in row-major order of canonical matrices."""
    return tuple(map(Collineation, _matrices()))


def _order(mx: Matrix3) -> tuple:
    # _matrices order: leading zeros of the (canonical) first row, then the entries
    return mx[0].index(1), mx


def _fixing(n: Sequence[int]) -> list[Matrix3]:
    """The canonical matrices with rows r1, r2, r3 such that (r1.n, r2.n,
    r3.n) is n or 2n, that is, mapping the column vector n to a multiple
    of itself, in the order of _matrices: 432 for a nonzero n."""
    by_dot = {c: [v for v in product(range(MOD), repeat=3) if dot(v, n) == c] for c in range(MOD)}
    out = []
    for k in (1, 2):
        first, *rest = (by_dot[k * x % MOD] for x in n)
        canonical = [v for v in first if (v[0] or v[1] or v[2]) == 1]  # first nonzero entry 1
        for mx in product(canonical, *rest):
            (a, b, c), (d, e, f), (g, h, i) = mx
            if (a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)) % MOD:  # nonsingular
                out.append(mx)
    return sorted(out, key=_order)


def stabilizer_of(p: ProjPoint) -> tuple[Collineation, ...]:
    """All collineations fixing the given point, in the order of
    all_collineations: the transposes of the matrices fixing p.rep as a
    column vector, re-canonicalised."""
    out = []
    for mx in _fixing(p.rep):
        tr = tuple(zip(*mx))
        lead = tr[0][0] or tr[0][1] or tr[0][2]  # first nonzero entry
        out.append(tr if lead == 1 else tuple(tuple(2 * x % MOD for x in r) for r in tr))
    return tuple(map(Collineation, sorted(out, key=_order)))


def induced_permutation(m: WittModel, c: Collineation) -> Perm:
    """Restriction of a U-fixing collineation to W, in local coordinates."""
    pm = c.point_map()
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


def complete_automorphisms(
    m: WittModel, frame: Sequence[int], images: Iterable[Sequence[int]]
) -> list[Perm]:
    """Every automorphism sending the frame to one row of images.

    frame and each row of images hold five distinct W-positions.  This
    is checks.complete_maps on the sixth-point table: exhaustive, and
    the rows it returns follow the order of the image rows they extend.
    """
    frame = tuple(frame)
    if len(frame) != 5 or len(set(frame) & set(range(12))) != 5:
        raise ValueError("the frame must be five distinct points of W")
    return complete_maps(m.sixth, m.local_blocks, frame, images)


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
    completed = complete_automorphisms(m, range(5), rows)
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


def _running_orders(generators: Sequence[Perm]) -> Iterator[int]:
    """The product of the basic orbit lengths of a deterministic
    Schreier-Sims, after each new strong generator: an increasing
    sequence of lower bounds on the group's order, ending at the order.

    Level i holds the strong generators fixing base[:i] and a
    transversal of their orbit of base[i].  Every Schreier generator of
    a level must sift to the identity through the levels below it; one
    that does not is a new strong generator.  It fixes base[:j], where j
    is the level its sift stopped at, so it joins the generating set of
    every level 0..j, and checking resumes at level j.
    """
    if not generators:
        return
    ident = identity_perm(len(generators[0]))
    base: list[int] = []
    strong: list[list[Perm]] = []
    # trans[i][x]: (u, u^-1) with u in <strong[i]> sending base[i] to x
    trans: list[dict[int, tuple[Perm, Perm]]] = []

    def sift(g: Perm) -> tuple[Perm, int]:
        for i, b in enumerate(base):
            u = trans[i].get(g[b])
            if u is None:
                return g, i
            g = compose_perm(g, u[1])
        return g, len(base)

    def add(g: Perm, depth: int) -> None:
        if depth == len(base):
            base.append(next(x for x, y in enumerate(g) if x != y))
            strong.append([])
            trans.append({})
        for i in range(depth + 1):
            strong[i].append(g)
            t = {base[i]: (ident, ident)}
            orbit = [base[i]]
            for x in orbit:
                for s in strong[i]:
                    if s[x] not in t:
                        u = compose_perm(t[x][0], s)
                        t[s[x]] = (u, invert_perm(u))
                        orbit.append(s[x])
            trans[i] = t

    def unsifted(i: int) -> tuple[Perm, int] | None:
        t = trans[i]
        for x, (u, _) in t.items():
            for s in strong[i]:
                h, j = sift(compose_perm(compose_perm(u, s), t[s[x]][1]))
                if h != ident:
                    return h, j
        return None

    for g in generators:
        h, j = sift(g)
        if h != ident:
            add(h, j)
            yield prod(map(len, trans))
    i = len(base) - 1
    while i >= 0:
        found = unsifted(i)
        if found is None:
            i -= 1
        else:
            add(*found)
            yield prod(map(len, trans))
            i = found[1]


def group_order(generators: Sequence[Perm]) -> int:
    """Order of the group the permutations generate, by a deterministic
    Schreier-Sims: the last, and largest, of its running products."""
    return max(_running_orders(generators), default=1)


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
    # each image of point 0; the first pair generating a group of the
    # chain's order is the whole group (see the module docstring)
    for pair in combinations(chain[0][1:], 2):
        orbit = [0]
        for x in orbit:
            orbit.extend(y for y in {g[x] for g in pair} if y not in orbit)
        if len(orbit) == 12 and order in _running_orders(pair):
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


def _residue(g: ProjLine) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """The 12 cut lines of g in local positions 0..8, and their
    completion table: the third point of the cut line through two."""
    residue = affine_residue(PLANE, g)
    pos = {p: i for i, p in enumerate(residue.points)}
    lines = [tuple(pos[x] for x in ln) for ln in residue.blocks]
    return lines, completion_table(lines, 9, 2)


def affinities(g: ProjLine) -> tuple[Perm, ...]:
    """All permutations of the 9 off-line points preserving the 12 cut
    lines, sorted: the engine's completions of the empty frame, which
    branch over the images of three non-collinear points (9*8*6)."""
    lines, table = _residue(g)
    return tuple(sorted(complete_maps(table, lines, (), [()])))


@lru_cache(maxsize=13)
def _line_collineations(g: ProjLine) -> dict[Perm, tuple[Collineation, Perm]]:
    """The collineations fixing g, keyed by their restriction to g's
    affine residue (positions 0..8, as in affinities), with point maps.

    A matrix fixes g exactly when it maps g's dual vector n, as a
    column, to a multiple of itself: the 432 matrices of _fixing(n).
    No two may share a restriction, so each affinity has at most one
    extension to a collineation.
    """
    pts = affine_residue(PLANE, g).points
    pos = [pts.index(p) if p in pts else -1 for p in range(13)]
    fixing = [Collineation(mx) for mx in _fixing(g.dual)]
    at_pts = itemgetter(*pts)
    table = {}
    for c in fixing:
        pm = c.point_map()
        table[itemgetter(*at_pts(pm))(pos)] = (c, pm)
    require(len(table) == len(fixing), "two collineations restrict to one affinity")
    return table


def _extensions(
    m: WittModel, g: ProjLine, alphas: Sequence[Perm]
) -> list[tuple[Collineation, Perm, Perm | None]]:
    """For each affinity of g's residue: the collineation kappa extending
    it, kappa's point map, and the automorphism sending the first five
    affine points to their images, or None unless it agrees on all nine."""
    pts = affine_residue(PLANE, g).points
    wpos = tuple(m.w_position[p] for p in pts)
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


def extend_affinity(m: WittModel, g: ProjLine, alpha: Perm) -> tuple[Collineation, Perm]:
    """The unique collineation and design automorphism extending an affinity.

    alpha maps positions 0..8 of the off-line points (ascending plane
    index) to positions.  Raises ValueError when alpha does not preserve
    the cut lines or when the model's U is off the line.
    """
    if m.u.index not in g.points:
        raise ValueError("the line must pass through U")
    if sorted(alpha) != list(range(9)):
        raise ValueError("alpha must be a permutation of 0..8")
    lines, table = _residue(g)
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
