"""Collineations of the plane and the automorphism group of the design.

Collineations are invertible 3x3 matrices over GF(3) modulo scalars
(the field is prime, so there is nothing semilinear to add), acting on
row vectors.  Canonical representative: first nonzero entry 1 in
row-major order.

Design automorphisms come from one forcing engine that completes the
images of a 5-point frame.  Every later image is forced, because an
automorphism must send the unique block over five assigned points to
the unique block over their images, pinning the sixth point.  Where the
forcing chain stalls (the assigned points fill out a single block) the
engine branches over all unused images.  Survivors are finally checked
against all 132 blocks, so the forcing only ever discards candidates,
never admits one.  Fed every ordered 5-tuple, the engine enumerates the
whole group; fed the images of five affine points under an affinity
(Remark 3), it yields the one automorphism extending it, since the group
is sharply 5-transitive.  It runs with numpy over all rows at once.

Affinities of the 9-point residue of a line are enumerated by a small
backtracking search over point images that requires every completed
line image to be a line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

import numpy as np

from .checks import InvariantError, affine_residue, require
from .design import WittModel
from .gf3 import MOD, Mat, det, mat_inv, mat_mul, solve, vec_add, vec_mat, vec_scale
from .plane import PLANE, PlaneModel, ProjLine, ProjPoint, collinear

Perm = tuple[int, ...]

Matrix3 = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Collineation:
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

    def apply_point(self, p: ProjPoint, plane: PlaneModel = PLANE) -> ProjPoint:
        return plane.point_from_vec(self.apply_vec(p.rep))

    def point_map(self, plane: PlaneModel = PLANE) -> tuple[int, ...]:
        """Images of all 13 points, by index."""
        return tuple(self.apply_point(p, plane).index for p in plane.points)

    def compose(self, other: "Collineation") -> "Collineation":
        """Apply self first, then other (row-vector action composes left to right)."""
        return Collineation.from_matrix(mat_mul(Mat(self.matrix), Mat(other.matrix)).rows)

    def inverse(self) -> "Collineation":
        return Collineation.from_matrix(mat_inv(Mat(self.matrix)).rows)


@lru_cache(maxsize=2)
def all_collineations(plane: PlaneModel = PLANE) -> tuple[Collineation, ...]:
    """All 5616 collineations in row-major order of canonical matrices: a
    canonical first row, then each row off the span of the rows above it."""
    vecs = list(product(range(MOD), repeat=3))
    firsts = sorted((p.rep for p in plane.points), key=lambda v: (v.index(1), v))
    out = []
    for r1 in firsts:
        span1 = {vec_scale(c, r1) for c in range(MOD)}
        for r2 in (v for v in vecs if v not in span1):
            span2 = {vec_add(a, vec_scale(c, r2)) for a in span1 for c in range(MOD)}
            out.extend(Collineation((r1, r2, r3)) for r3 in vecs if r3 not in span2)
    return tuple(out)


def stabilizer_of(plane: PlaneModel, p: ProjPoint) -> tuple[Collineation, ...]:
    """All collineations fixing the given point."""
    rep = p.rep
    return tuple(
        c for c in all_collineations(plane)
        if plane.point_from_vec(c.apply_vec(rep)).index == p.index
    )


def induced_permutation(m: WittModel, c: Collineation) -> Perm:
    """Restriction of a U-fixing collineation to W, in local coordinates."""
    pm = c.point_map(m.plane)
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


def _forcing_program(frame: Sequence[int], sixth: np.ndarray) -> list[tuple]:
    """Static schedule: which image is forced next, and from which five points."""
    aset = set(frame)
    program: list[tuple] = []
    while len(aset) < 12:
        step = None
        for sub in combinations(sorted(aset), 5):
            x = int(sixth[sum(1 << s for s in sub)])
            if x not in aset:
                step = ("force", sub, x)
                break
        if step is None:
            step = ("branch", min(set(range(12)) - aset))
        program.append(step)
        aset.add(step[-1])
    return program


def complete_automorphisms(
    m: WittModel, frame: Sequence[int], images: np.ndarray | Sequence[Sequence[int]]
) -> np.ndarray:
    """Every automorphism sending the frame to one row of images, as array rows.

    frame holds five distinct W-positions and images an (n, 5) array of
    their candidate images.  Exhaustive: any block-preserving
    permutation that maps the frame to some row survives each necessary
    forcing step and passes the final full block check; conversely only
    permutations passing the full check are returned.  Surviving rows
    keep the order of the image rows they extend.
    """
    frame = tuple(frame)
    images = np.asarray(images, dtype=np.int16).reshape(-1, 5)
    if len(set(frame) & set(range(12))) != 5 or ((images < 0) | (images >= 12)).any():
        raise ValueError("the frame must be five distinct points of W, and images lie in W")
    # bitmask tables: is_block[mask of a block], and sixth[mask of five
    # points] is the sixth point of their block (-1 off 5-sets)
    is_block = np.zeros(1 << 12, dtype=bool)
    sixth = np.full(1 << 12, -1, dtype=np.int16)
    for b in m.local_blocks:
        bm = sum(1 << x for x in b)
        is_block[bm] = True
        for x in b:
            sixth[bm ^ (1 << x)] = x
    img = np.full((len(images), 12), -1, dtype=np.int16)
    img[:, frame] = images
    used = np.bitwise_or.reduce(1 << images, axis=1)
    if (sixth[used] < 0).any():  # sixth is -1 unless the mask holds five points
        raise ValueError("every image row must be five distinct points of W")

    for step in _forcing_program(frame, sixth):
        if step[0] == "force":
            _, sub, x = step
            forced = sixth[np.bitwise_or.reduce(1 << img[:, sub], axis=1)]
            require((forced >= 0).all(), "forcing met a repeated image")
            keep = ((used >> forced) & 1) == 0
            img, used, forced = img[keep], used[keep], forced[keep]
            img[:, x] = forced
            used |= 1 << forced
        else:
            _, x = step
            avail = ((used[:, None] >> np.arange(12, dtype=np.int16)) & 1) == 0
            ridx, cand = np.nonzero(avail)
            img, used = img[ridx], used[ridx]
            img[:, x] = cand.astype(np.int16)
            used |= (1 << cand).astype(np.int16)

    ok = np.ones(len(img), dtype=bool)
    for b in m.local_blocks:
        ok &= is_block[np.bitwise_or.reduce(1 << img[:, b], axis=1)]
    return img[ok]


def all_automorphisms(m: WittModel) -> np.ndarray:
    """Every permutation of W preserving the block set, as rows of an array.

    The engine completes every ordered 5-tuple of images of positions
    0..4, so no automorphism is missed.  Rows are sorted
    lexicographically.
    """
    prefixes = np.fromiter(
        (x for tup in permutations(range(12), 5) for x in tup), dtype=np.int16
    ).reshape(-1, 5)
    result = complete_automorphisms(m, range(5), prefixes)
    order = np.lexsort(tuple(result[:, c] for c in range(11, -1, -1)))
    return result[order]


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


@dataclass(frozen=True)
class GroupSummary:
    order: int
    generators: tuple[Perm, ...]
    sharply_5_transitive: bool


def _generating_pair(automorphisms: np.ndarray) -> tuple[Perm, Perm]:
    # the first row with each image of point 0 spreads the candidates
    # across cosets; some pair of those generates quickly
    _, first = np.unique(automorphisms[:, 0], return_index=True)
    leaders = [tuple(int(x) for x in automorphisms[i]) for i in sorted(first)]
    leaders = [e for e in leaders if e != identity_perm(len(e))]
    for a, b in combinations(leaders, 2):
        if len(group_closure([a, b])) == len(automorphisms):
            return (a, b)
    raise InvariantError("no generating pair among the coset leaders: invariant broken")


def automorphism_group(automorphisms: np.ndarray) -> GroupSummary:
    """Order, a small generating set, and the sharp 5-transitivity
    certificate of the enumerated automorphisms (all_automorphisms)."""
    order = len(automorphisms)
    prefixes = np.unique(automorphisms[:, :5], axis=0)
    sharp = order == 12 * 11 * 10 * 9 * 8 and len(prefixes) == order
    gens = _generating_pair(automorphisms)
    return GroupSummary(order=order, generators=gens, sharply_5_transitive=sharp)


def elliptic_involution(g: ProjLine, x: ProjPoint, u: ProjPoint) -> dict[int, int]:
    """The fixed-point-free involution of g's four points swapping x and u."""
    on_g = set(g.points)
    if x.index not in on_g or u.index not in on_g:
        raise ValueError("both points must lie on the line")
    if x.index == u.index:
        raise ValueError("the two swapped points must differ")
    y, z = sorted(on_g - {x.index, u.index})
    return {x.index: u.index, u.index: x.index, y: z, z: y}


def _residue_lines(plane: PlaneModel, g: ProjLine) -> tuple[tuple[int, ...], list]:
    """The off-line points of g and its 12 cut lines in local positions 0..8."""
    residue = affine_residue(plane, g)
    pos = {p: i for i, p in enumerate(residue.points)}
    return residue.points, [tuple(pos[x] for x in ln) for ln in residue.blocks]


def affinities(plane: PlaneModel, g: ProjLine) -> tuple[Perm, ...]:
    """All permutations of the 9 off-line points preserving the 12 cut lines.

    Exhaustive backtracking over images in point order; whenever the
    three points of a cut line are all assigned, their images must form
    a cut line.  The check is a necessary condition, so no
    line-preserving permutation is ever pruned.
    """
    pts, lines = _residue_lines(plane, g)
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


def _general_position_frame(plane: PlaneModel, idxs: Sequence[int]) -> tuple[int, ...]:
    for quad in combinations(idxs, 4):
        pts = [plane.points[i] for i in quad]
        if not any(collinear(a, b, c) for a, b, c in combinations(pts, 3)):
            return quad
    raise InvariantError("no quadrilateral among the affine points")


def _frame_matrix(plane: PlaneModel, frame: Sequence[int]) -> Mat:
    # rows lambda_i * rep(s_i) map the standard frame onto s1..s4
    v1, v2, v3, v4 = (plane.points[i].rep for i in frame)
    cols = Mat.from_rows([v1, v2, v3]).transpose()
    lam = solve(cols, v4)
    require(lam is not None and all(lam), "the frame is not in general position")
    return Mat.from_rows(
        [[(l * x) % MOD for x in v] for l, v in zip(lam, (v1, v2, v3))]
    )


def collineation_from_frames(
    src: Sequence[int], dst: Sequence[int], plane: PlaneModel = PLANE
) -> Collineation:
    """The unique collineation sending one 4-point frame to another."""
    a = _frame_matrix(plane, src)
    b = _frame_matrix(plane, dst)
    return Collineation.from_matrix(mat_mul(mat_inv(a), b).rows)


def _extensions(
    m: WittModel, g: ProjLine, alphas: Sequence[Perm]
) -> list[tuple[Collineation, Perm, Perm | None]]:
    """For each affinity of g's residue: the collineation kappa extending
    it, kappa's point map, and the automorphism completing its images of
    the first five affine points, or None unless it agrees on all nine."""
    plane = m.plane
    pts = affine_residue(plane, g).points
    frame = _general_position_frame(plane, pts)
    wpos = [m.w_position[p] for p in pts]
    wanted = [tuple(wpos[a] for a in alpha) for alpha in alphas]
    completed: dict[tuple[int, ...], Perm] = {}
    for row in complete_automorphisms(m, wpos[:5], [w[:5] for w in wanted]):
        beta = tuple(int(x) for x in row)
        key = tuple(beta[x] for x in wpos[:5])
        if key in completed:
            raise InvariantError("two automorphisms share the images of five points")
        completed[key] = beta
    out = []
    for alpha, w in zip(alphas, wanted):
        dst = tuple(pts[alpha[pts.index(i)]] for i in frame)
        kappa = collineation_from_frames(frame, dst, plane)
        pm = kappa.point_map(plane)
        if any(pm[p] != pts[a] for p, a in zip(pts, alpha)):
            raise InvariantError("the collineation does not extend the affinity")
        beta = completed.get(w[:5])
        ok = beta is not None and tuple(beta[x] for x in wpos) == w
        out.append((kappa, pm, beta if ok else None))
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
    _, lines = _residue_lines(m.plane, g)
    lineset = {frozenset(ln) for ln in lines}
    if any(frozenset(alpha[x] for x in ln) not in lineset for ln in lines):
        raise ValueError("alpha does not preserve the cut lines")
    ((kappa, _, beta),) = _extensions(m, g, [alpha])
    if beta is None:
        raise InvariantError("no design automorphism extends the affinity")
    return kappa, beta


@dataclass(frozen=True)
class ExtensionReport:
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
    plane, u = m.plane, m.u.index
    if u not in g.points:
        raise ValueError("the line must pass through U")
    alphas = affinities(plane, g)
    others = sorted(set(g.points) - {u})
    gammas = [elliptic_involution(g, plane.points[x], m.u) for x in others]
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
