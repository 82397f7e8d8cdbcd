"""The projective plane of order three.

Thirteen points and thirteen lines, four points on every line, four
lines through every point.  A point is a nonzero coordinate triple up to
scalars; its canonical representative has first nonzero coordinate 1.
Points are numbered 0..12 in ascending lexicographic order of canonical
representatives, lines likewise by their dual triples, and every block,
table, and file this package emits refers to that fixed numbering.
"""

from __future__ import annotations

import re
from itertools import combinations, product
from typing import Any, Callable, Iterable, Sequence

from .checks import InvariantError, Record, require
from .gf3 import MOD, Mat, det, dot

POINT_COUNT = 13
LINE_SIZE = 4

# ASCII digits only: int() alone would also read '1_0', '+4', '٢' and '１';
# it still refuses over 4300 digits, which the parser reports as a bad spec
_INDEX_SPEC = re.compile(r"#[0-9]+")
_COORD_SPEC = re.compile(r"\s*-?[0-9]+\s*")


def normalize(v: Sequence[int]) -> tuple[int, int, int]:
    """Canonical representative of a nonzero triple: first nonzero entry 1."""
    if len(v) != 3:
        raise ValueError("expected a coordinate triple")
    w = tuple(x % MOD for x in v)
    if w == (0, 0, 0):
        raise ValueError("the zero vector spans no projective point")
    lead = next(x for x in w if x)
    if lead == 2:
        w = tuple((2 * x) % MOD for x in w)
    return w  # type: ignore[return-value]


class ProjPoint(Record):
    index: int
    rep: tuple[int, int, int]

    def coord_str(self) -> str:
        return ":".join(str(x) for x in self.rep)

    def __str__(self) -> str:
        return f"#{self.index}({self.coord_str()})"


class ProjLine(Record):
    index: int
    dual: tuple[int, int, int]
    points: tuple[int, int, int, int]

    def coord_str(self) -> str:
        return ":".join(str(x) for x in self.dual)

    def __str__(self) -> str:
        return f"line#{self.index}[{self.coord_str()}]"


def _canonical_triples() -> tuple[tuple[int, int, int], ...]:
    reps = {normalize(v) for v in product(range(MOD), repeat=3) if v != (0, 0, 0)}
    return tuple(sorted(reps))


class PlaneModel:
    """Precomputed incidence model of PG(2, 3)."""

    def __init__(self) -> None:
        triples = _canonical_triples()
        require(len(triples) == POINT_COUNT, "wrong number of points")
        self.points: tuple[ProjPoint, ...] = tuple(
            ProjPoint(i, t) for i, t in enumerate(triples)
        )
        self._point_index: dict[tuple[int, int, int], int] = {
            t: i for i, t in enumerate(triples)
        }
        lines = []
        for i, d in enumerate(triples):
            on = tuple(p.index for p in self.points if dot(d, p.rep) == 0)
            require(len(on) == LINE_SIZE, "a line without four points")
            lines.append(ProjLine(i, d, on))
        self.lines: tuple[ProjLine, ...] = tuple(lines)
        self._line_index: dict[tuple[int, int, int], int] = {
            ln.dual: ln.index for ln in self.lines
        }
        self._lines_through: tuple[tuple[int, ...], ...] = tuple(
            tuple(ln.index for ln in self.lines if p.index in ln.points)
            for p in self.points
        )

    def point_from_vec(self, v: Sequence[int]) -> ProjPoint:
        return self.points[self._point_index[normalize(v)]]

    def line_from_dual(self, v: Sequence[int]) -> ProjLine:
        return self.lines[self._line_index[normalize(v)]]

    def lines_through(self, p: ProjPoint) -> tuple[ProjLine, ...]:
        return tuple(self.lines[i] for i in self._lines_through[p.index])

    def parse_point(self, spec: str) -> ProjPoint:
        """Parse '#k' or 'x0:x1:x2' (entries reduced mod 3, zero rejected)."""
        return self._parse(spec, "point", self.points, self.point_from_vec)

    def parse_line(self, spec: str) -> ProjLine:
        """Parse '#k' or a dual triple 'c0:c1:c2'."""
        return self._parse(spec, "line", self.lines, self.line_from_dual)

    def _parse(self, spec: str, kind: str, by_index: Sequence, from_vec: Callable) -> Any:
        s = spec.strip()
        if s.startswith("#"):
            if not _INDEX_SPEC.fullmatch(s):
                raise ValueError(f"bad {kind} spec {spec!r}")
            try:
                k = int(s[1:])
            except ValueError:
                raise ValueError(f"bad {kind} spec {spec!r}") from None
            if not 0 <= k < len(by_index):
                raise ValueError(f"{kind} index out of range in {spec!r}")
            return by_index[k]
        parts = s.split(":")
        if len(parts) != 3 or not all(_COORD_SPEC.fullmatch(x) for x in parts):
            raise ValueError(f"bad {kind} spec {spec!r}")
        try:
            v = [int(x) for x in parts]
        except ValueError:
            raise ValueError(f"bad {kind} spec {spec!r}") from None
        return from_vec(v)


PLANE = PlaneModel()


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    return det(Mat.from_rows([p.rep, q.rep, r.rep])) == 0


def collinear_triple_in(
    points: Iterable[ProjPoint],
) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """First collinear triple (by index order) among five distinct points.

    Five points always contain one: a point off all lines spanned by the
    others would make a 5-arc, and the plane has none.
    """
    pts = sorted(set(points), key=lambda p: p.index)
    if len(pts) != 5:
        raise ValueError("expected five distinct points")
    for a, b, c in combinations(pts, 3):
        if collinear(a, b, c):
            return a, b, c
    raise InvariantError("five points with no collinear triple: invariant broken")
