"""Collineations of the plane and the automorphism group of the design.

Collineations are invertible 3x3 matrices over GF(3) modulo scalars
(the field is prime, so there is nothing semilinear to add), acting on
row vectors.  Canonical representative: first nonzero entry 1 in
row-major order.  One enumeration of all 5616 of them serves every
use: the stabilizer of U, and the collineation kappa extending an
affinity of a line's residue (Remark 3), which is the only one in the
enumeration with the affinity's restriction; that uniqueness is checked
on every run.

Design automorphisms come from one forcing engine that completes the
images of a 5-point frame.  Every later image is forced, because an
automorphism must send the unique block over five assigned points to
the unique block over their images, pinning the sixth point.  Where the
forcing chain stalls (the assigned points fill out a single block) the
engine branches over all unused images.  Survivors are finally checked
against all 132 blocks, so the forcing only ever discards candidates,
never admits one.  Completing 46 frames gives a certified stabilizer
chain of positions 0..4, proving the group sharply 5-transitive of order
12*11*10*9*8; products along the chain list the group, and five look-ups
give the automorphism extending an affinity (Remark 3).  The reported
generating pair is certified by a deterministic Schreier-Sims: the
group it generates has the chain's order, so it is the whole group.

Affinities of the 9-point residue of a line are enumerated by a small
backtracking search over point images that requires every completed
line image to be a line.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import prod
from typing import Iterable, Sequence

from .checks import InvariantError, Record, affine_residue, require
from .design import WittModel
from .gf3 import MOD, Mat, det, mat_inv, mat_mul, vec_add, vec_mat, vec_scale
from .plane import PLANE, ProjLine, ProjPoint

Perm = tuple[int, ...]

Matrix3 = tuple[tuple[int, int, int], ...]


class Collineation(Record):
    """Invertible matrix mod scalars; first nonzero entry is 1."""

    matrix: Matrix3

    @classmethod
    def from_matrix(cls, rows: Iterable[Iterable[int]]) -> "Collineation":
        m = tuple(tuple(x % MOD for x in r) for r in rows)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("expected a 3x3 matrix")
        if det(Mat(m)) == 0:
            raise ValueError("matrix is singular")
        flat = [x for r in m for x in r]
        lead = next(x for x in flat if x)
        if lead == 2:
            m = tuple(tuple((2 * x) % MOD for x in r) for r in m)
        return cls(m)

    @classmethod
    def identity(cls) -> "Collineation":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def apply_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        return vec_mat(v, Mat(self.matrix))

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return PLANE.point_from_vec(self.apply_vec(p.rep))

    def point_map(self) -> tuple[int, ...]:
        """Images of all 13 points, by index."""
        index = PLANE._point_index
        return tuple(index[_image(self.matrix, p.rep)] for p in PLANE.points)

    def compose(self, other: "Collineation") -> "Collineation":
        """Apply self first, then other (row-vector action composes left to right)."""
        return Collineation.from_matrix(mat_mul(Mat(self.matrix), Mat(other.matrix)).rows)

    def inverse(self) -> "Collineation":
        return Collineation.from_matrix(mat_inv(Mat(self.matrix)).rows)


def _image(m: Matrix3, v: Sequence[int]) -> tuple[int, int, int]:
    """Canonical representative of v times m: apply_vec without a Mat."""
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    r = ((x * a + y * d + z * g) % MOD, (x * b + y * e + z * h) % MOD, (x * c + y * f + z * i) % MOD)
    if (r[0] or r[1] or r[2]) == 2:
        return ((2 * r[0]) % MOD, (2 * r[1]) % MOD, (2 * r[2]) % MOD)
    return r


@lru_cache(maxsize=1)
def all_collineations() -> tuple[Collineation, ...]:
    """All 5616 collineations in row-major order of canonical matrices: a
    canonical first row, then each row off the span of the rows above it."""
    vecs = list(product(range(MOD), repeat=3))
    firsts = sorted((p.rep for p in PLANE.points), key=lambda v: (v.index(1), v))
    out = []
    for r1 in firsts:
        span1 = {vec_scale(c, r1) for c in range(MOD)}
        for r2 in (v for v in vecs if v not in span1):
            span2 = {vec_add(a, vec_scale(c, r2)) for a in span1 for c in range(MOD)}
            out.extend(Collineation((r1, r2, r3)) for r3 in vecs if r3 not in span2)
    return tuple(out)


def stabilizer_of(p: ProjPoint) -> tuple[Collineation, ...]:
    """All collineations fixing the given point."""
    rep = p.rep
    return tuple(c for c in all_collineations() if _image(c.matrix, rep) == rep)


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
    return tuple(q[x] for x in p)


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_design_automorphism(m: WittModel, perm: Perm) -> bool:
    return all(
        tuple(sorted(perm[x] for x in b)) in m.local_blockset for b in m.local_blocks
    )


def _forcing_program(frame: Sequence[int], sixth: dict[int, int]) -> list[tuple]:
    """Static schedule: which image is forced next, and from which five points."""
    aset = set(frame)
    program: list[tuple] = []
    while len(aset) < 12:
        step = None
        for sub in combinations(sorted(aset), 5):
            x = sixth[sum(1 << s for s in sub)]
            if x not in aset:
                step = ("force", sub, x)
                break
        if step is None:
            step = ("branch", min(set(range(12)) - aset))
        program.append(step)
        aset.add(step[-1])
    return program


def complete_automorphisms(
    m: WittModel, frame: Sequence[int], images: Iterable[Sequence[int]]
) -> list[Perm]:
    """Every automorphism sending the frame to one row of images.

    frame holds five distinct W-positions and each row of images five
    distinct candidate images.  Exhaustive: any block-preserving
    permutation that maps the frame to some row survives each necessary
    forcing step and passes the final full block check; conversely only
    permutations passing the full check are returned.  Surviving rows
    keep the order of the image rows they extend.
    """
    frame, w = tuple(frame), set(range(12))
    if len(frame) != 5 or len(set(frame) & w) != 5:
        raise ValueError("the frame must be five distinct points of W")
    sixth = m.sixth  # the sixth point of the block over a five-point bitmask
    rows = []
    for row in images:
        row = [int(y) for y in row]
        if len(row) != 5 or len(set(row) & w) != 5:
            raise ValueError("every image row must be five distinct points of W")
        img = [row[frame.index(j)] if j in frame else -1 for j in range(12)]
        rows.append((img, sum(1 << y for y in row)))
    for step in _forcing_program(frame, sixth):
        # forced: the sixth point of the block over five assigned images
        force, x = step[0] == "force", step[-1]
        rows = [
            (img[:x] + [y] + img[x + 1:], used | 1 << y)
            for img, used in rows
            for y in ((sixth[sum(1 << img[s] for s in step[1])],) if force else range(12))
            if not used >> y & 1
        ]
    return [tuple(img) for img, _ in rows if is_design_automorphism(m, img)]


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


def group_order(generators: Sequence[Perm]) -> int:
    """Order of the group the permutations generate, by a deterministic
    Schreier-Sims: the product of the basic orbit lengths.

    Level i holds the strong generators fixing base[:i] and a
    transversal of their orbit of base[i].  Every Schreier generator of
    a level must sift to the identity through the levels below it; one
    that does not is a new strong generator.  It fixes base[:j], where j
    is the level its sift stopped at, so it joins the generating set of
    every level 0..j, and checking resumes at level j.
    """
    if not generators:
        return 1
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
    i = len(base) - 1
    while i >= 0:
        found = unsifted(i)
        if found is None:
            i -= 1
        else:
            add(*found)
            i = found[1]
    return prod(len(t) for t in trans)


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
    # each image of point 0; the first pair whose Schreier-Sims order is
    # the chain's generates the whole group
    for pair in combinations(chain[0][1:], 2):
        if group_order(pair) == order:
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


def _residue_lines(g: ProjLine) -> tuple[tuple[int, ...], list]:
    """The off-line points of g and its 12 cut lines in local positions 0..8."""
    residue = affine_residue(PLANE, g)
    pos = {p: i for i, p in enumerate(residue.points)}
    return residue.points, [tuple(pos[x] for x in ln) for ln in residue.blocks]


def affinities(g: ProjLine) -> tuple[Perm, ...]:
    """All permutations of the 9 off-line points preserving the 12 cut lines.

    Exhaustive backtracking over images in point order; whenever the
    three points of a cut line are all assigned, their images must form
    a cut line.  The check is a necessary condition, so no
    line-preserving permutation is ever pruned.
    """
    pts, lines = _residue_lines(g)
    lineset = {frozenset(ln) for ln in lines}
    complete_at: list[list[tuple[int, ...]]] = [[] for _ in range(9)]
    for ln in lines:
        complete_at[max(ln)].append(ln)
    found: list[Perm] = []
    image = [-1] * 9
    used = [False] * 9

    def place(i: int) -> None:
        if i == 9:
            found.append(tuple(image))
            return
        for j in range(9):
            if used[j]:
                continue
            image[i] = j
            if all(
                frozenset(image[x] for x in ln) in lineset for ln in complete_at[i]
            ):
                used[j] = True
                place(i + 1)
                used[j] = False
        image[i] = -1

    place(0)
    return tuple(sorted(found))


@lru_cache(maxsize=13)
def _line_collineations(g: ProjLine) -> dict[Perm, tuple[Collineation, Perm]]:
    """The collineations fixing g, keyed by their restriction to g's
    affine residue (positions 0..8, as in affinities), with point maps.

    A collineation fixes g exactly when it sends two points of g onto g.
    No two may share a restriction, so each affinity has at most one
    extension to a collineation.
    """
    pts = affine_residue(PLANE, g).points
    pos = {p: i for i, p in enumerate(pts)}
    reps = {PLANE.points[i].rep for i in g.points}
    a, b = (PLANE.points[i].rep for i in g.points[:2])
    fixing = [
        c for c in all_collineations() if _image(c.matrix, a) in reps and _image(c.matrix, b) in reps
    ]
    table = {}
    for c in fixing:
        pm = c.point_map()
        table[tuple(pos[pm[p]] for p in pts)] = (c, pm)
    require(len(table) == len(fixing), "two collineations restrict to one affinity")
    return table


def _extensions(
    m: WittModel, g: ProjLine, alphas: Sequence[Perm]
) -> list[tuple[Collineation, Perm, Perm | None]]:
    """For each affinity of g's residue: the collineation kappa extending
    it, kappa's point map, and the automorphism sending the first five
    affine points to their images, or None unless it agrees on all nine."""
    pts = affine_residue(PLANE, g).points
    wpos = [m.w_position[p] for p in pts]
    table = _line_collineations(g)
    chain = _chain(m)
    to_frame = invert_perm(_carrier(chain, wpos[:5]))
    out = []
    for alpha in alphas:
        w = tuple(wpos[a] for a in alpha)
        require(alpha in table, "no collineation extends the affinity")
        kappa, pm = table[alpha]
        beta = compose_perm(to_frame, _carrier(chain, w[:5]))
        out.append((kappa, pm, beta if tuple(beta[x] for x in wpos) == w else None))
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
    _, lines = _residue_lines(g)
    lineset = {frozenset(ln) for ln in lines}
    if any(frozenset(alpha[x] for x in ln) not in lineset for ln in lines):
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
        u_pre = invert_perm(pm)[u]
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
