"""Generic t-design verification and Steiner-system map completion.

An incidence structure here is a point list plus a block list; blocks
are stored sorted and the block list itself is sorted, so structural
equality of two structures is equality of their canonical forms.  The
verifier takes no shortcuts: it counts, for every t-subset of the
points, the number of blocks containing it.

A Steiner system S(t, t+1, v) on points 0..v-1 has one block over each
t-set: its completion table maps each t-set, as a bitmask, to the last
point of that block, and the engine complete_maps extends partial maps
through it to exactly the block-preserving permutations.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb
from operator import attrgetter, itemgetter
from typing import Any, Hashable, Iterable, Sequence, Union


class InvariantError(AssertionError):
    """A property the construction proves at runtime failed to hold."""


def require(cond: object, msg: str) -> None:
    """Raise InvariantError unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise InvariantError(msg)


_setfield = object.__setattr__


class Record:
    """Immutable value with named fields: the class annotations, in order.

    Construction takes every field, positionally or by keyword, and a
    ``__post_init__`` hook runs after assignment.  Records compare and
    hash as the tuple of their fields, and only against their own type.
    ``_fields`` names the fields; the underscore, as in a namedtuple,
    keeps it clear of them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)  # a bare value, not a tuple, for one field
        cls._key = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for f, v in zip(fields, args):
            _setfield(self, f, v)  # not via __dict__, which would slow every read
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        # positional values first, then keywords; a field has no default
        fields = cls._fields
        rest = tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if len(args) + len(rest) != len(fields) or kwargs:
            names = ", ".join(fields)
            raise TypeError(f"{cls.__qualname__}({names}): an argument is missing, repeated or unknown")
        return args + rest

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class IncidenceStructure(Record):
    points: tuple[Hashable, ...]
    blocks: tuple[tuple[Hashable, ...], ...]

    def __init__(
        self,
        points: Iterable[Hashable],
        blocks: Iterable[Iterable[Hashable]],
    ) -> None:
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points")
        pset = set(pts)
        canon = []
        for b in blocks:
            bt = tuple(sorted(b))
            if len(set(bt)) != len(bt):
                raise ValueError(f"repeated point inside block {bt}")
            if not set(bt) <= pset:
                raise ValueError(f"block {bt} uses points outside the structure")
            canon.append(bt)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "blocks", tuple(sorted(canon)))


class DesignParams(Record):
    t: int
    v: int
    k: int
    lambda_: int


class DesignViolation(Record):
    """Concrete counterexample: either a deviant block or a miscovered subset."""

    kind: str  # "block-size" or "coverage"
    witness: tuple[Hashable, ...]
    count: int
    expected: int


VerifyResult = Union[DesignParams, DesignViolation]


def verify_t_design(s: IncidenceStructure, t: int) -> VerifyResult:
    """Check the t-design property by brute force.

    Returns the parameters on success; on failure, returns the first
    block of deviant size or the first t-subset whose coverage differs
    from that of the lexicographically first t-subset.
    """
    if not s.points:
        raise ValueError("structure has no points")
    if not s.blocks:
        raise ValueError("structure has no blocks")
    if t < 1:
        raise ValueError("t must be at least 1")
    k = len(s.blocks[0])
    if t > min(len(b) for b in s.blocks):
        raise ValueError("t exceeds the smallest block size")
    for b in s.blocks:
        if len(b) != k:
            return DesignViolation("block-size", b, len(b), k)
    coverage: Counter = Counter()
    for b in s.blocks:
        for sub in combinations(b, t):
            coverage[sub] += 1
    lam: int | None = None
    for sub in combinations(sorted(s.points), t):
        c = coverage.get(sub, 0)
        if lam is None:
            lam = c
        elif c != lam:
            return DesignViolation("coverage", sub, c, lam)
    return DesignParams(t, len(s.points), k, lam)


def lambda_cascade(p: DesignParams) -> tuple[int, ...]:
    """lambda_i for i = 0..t; raises when any value is non-integral."""
    out = []
    for i in range(p.t + 1):
        num = p.lambda_ * comb(p.v - i, p.t - i)
        den = comb(p.k - i, p.t - i)
        if num % den:
            raise ValueError(f"lambda_{i} = {num}/{den} is not an integer")
        out.append(num // den)
    return tuple(out)


def derived_design(
    s: IncidenceStructure, fixed: Iterable[Hashable]
) -> IncidenceStructure:
    """Fix points, keep the blocks through all of them, remove the fixed points."""
    fx = set(fixed)
    if not fx <= set(s.points):
        raise ValueError("fixed points must belong to the structure")
    pts = tuple(p for p in s.points if p not in fx)
    blocks = tuple(
        tuple(x for x in b if x not in fx) for b in s.blocks if fx <= set(b)
    )
    return IncidenceStructure(pts, blocks)


def affine_residue(plane, g) -> IncidenceStructure:
    """The affine plane left after deleting a line: 9 points, 12 cut lines."""
    on_g = set(g.points)
    pts = tuple(p.index for p in plane.points if p.index not in on_g)
    pset = set(pts)
    blocks = []
    for ln in plane.lines:
        if ln.index == g.index:
            continue
        cut = tuple(x for x in ln.points if x in pset)
        require(len(cut) == 3, "a line does not meet g in exactly one point")
        blocks.append(cut)
    return IncidenceStructure(pts, blocks)


def completion_table(blocks: Iterable[Sequence[int]], v: int, t: int) -> dict[int, int]:
    """The last point of the block over each t-set of points 0..v-1,
    keyed by the t-set as a bitmask; the blocks have t + 1 points each."""
    table: dict[int, int] = {}
    twice = f"a {t}-set inside two blocks"
    for b in blocks:
        mask = sum(1 << x for x in b)
        for x in b:
            key = mask ^ 1 << x
            require(key not in table, twice)
            table[key] = x
    require(len(table) == comb(v, t), f"a {t}-set of the {v} points is uncovered")
    return table


def _schedule(blocks: Sequence[Sequence[int]], frame: Sequence[int]) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Static placement order after the frame: each point with the other
    points of every block it completes, its forcing block first.  The
    next point completes the first block with one point unplaced, else
    it is the least unplaced point, completes no block, and branches."""
    rest = [set(b).difference(frame) for b in blocks]
    if not all(rest):
        raise ValueError("the frame contains a block")
    unplaced = set().union(*rest)
    steps = []
    while unplaced:
        x = next((min(r) for r in rest if len(r) == 1), min(unplaced))
        steps.append((x, [tuple(p for p in b if p != x) for b, r in zip(blocks, rest) if r == {x}]))
        unplaced.discard(x)
        for r in rest:
            r.discard(x)
    return steps


def complete_maps(
    table: dict[int, int], blocks: Sequence[Sequence[int]], frame: Sequence[int], images: Iterable[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Every block-preserving permutation of a Steiner system
    S(t, t+1, v), t >= 2, with its completion table, sending the frame
    to one row of images, in the order of the rows they extend.

    A point completing blocks of placed points is forced by the first:
    its image must be unused and agree with each other block it
    completes.  A point completing none branches over every unused image
    (the one step that copies a row).  So every block outside the frame
    is checked once on every surviving row, and the schedule's checks
    must number the blocks.  Images are held as bits:
    the t-set of a block's placed images is the sum of their bits, which
    the used-image check keeps a bitwise OR.
    """
    frame, points = tuple(frame), range(len(set().union(*blocks)))
    steps = _schedule(blocks, frame)
    if len(frame) + len(steps) != len(points):  # a repeated point, or one outside
        raise ValueError("the frame must be distinct points")
    require(sum(len(done) for _, done in steps) == len(blocks), "the schedule checks a block twice or never")
    rows = []
    for row in images:
        row = [int(y) for y in row]
        if len(row) != len(frame) or len(set(row)) != len(row) or not set(row) <= set(points):
            raise ValueError(f"every image row must be {len(frame)} distinct points")
        img = [0] * len(points)  # 0: no image yet
        for x, y in zip(frame, row):
            img[x] = 1 << y
        rows.append(img)
    bit_of = {mask: 1 << y for mask, y in table.items()}
    for x, done in steps:
        if not done:
            rows = [img[:x] + [1 << y] + img[x + 1:] for img in rows for y in points if 1 << y not in img]
            continue
        force, *checks = [itemgetter(*others) for others in done]
        kept = []
        for img in rows:
            b = bit_of[sum(force(img))]
            if b in img:  # used: the map would not be injective
                continue
            for c in checks:
                if bit_of[sum(c(img))] != b:
                    break
            else:
                img[x] = b
                kept.append(img)
        rows = kept
    point_of = {1 << y: y for y in points}
    return [tuple(map(point_of.__getitem__, img)) for img in rows]
