"""Serialization of a constructed design.

Two renderings of the same content: a human-readable table and a
machine-readable JSON document.  The document carries the 13 canonical
point coordinates in index order, the index of the removed point U, the
132 blocks in lexicographic order, and one class record with witness
per block.  Emission is deterministic byte for byte; parsing followed
by re-emission reproduces the input exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .checks import Record
from .design import (
    Block,
    BlockClass,
    ConicExterior,
    LinePairMinusU,
    SymmetricDifference,
    WittModel,
)
from .plane import PLANE
from .quadrics import QuadraticForm

FORMAT_NAME = "witt12-design-v1"

KIND_CONIC = "conic_exterior"
KIND_SYMDIFF = "symmetric_difference"
KIND_LINEPAIR = "line_pair_minus_u"


class DesignFileError(ValueError):
    """Raised when a design document is structurally malformed."""


class ClassRecord(Record):
    kind: str
    form: tuple[int, ...] | None = None
    lines: tuple[str, str] | None = None


class DesignDocument(Record):
    points: tuple[str, ...]
    u: int
    blocks: tuple[Block, ...]
    classes: tuple[ClassRecord, ...]


def class_record(cls_: BlockClass) -> ClassRecord:
    if isinstance(cls_, ConicExterior):
        return ClassRecord(kind=KIND_CONIC, form=cls_.form.coeffs)
    if isinstance(cls_, SymmetricDifference):
        return ClassRecord(
            kind=KIND_SYMDIFF,
            lines=(cls_.lines[0].coord_str(), cls_.lines[1].coord_str()),
        )
    if isinstance(cls_, LinePairMinusU):
        return ClassRecord(
            kind=KIND_LINEPAIR,
            lines=(cls_.lines[0].coord_str(), cls_.lines[1].coord_str()),
        )
    raise TypeError(f"unknown block class {cls_!r}")


def document_from_model(m: WittModel) -> DesignDocument:
    return DesignDocument(
        points=tuple(p.coord_str() for p in PLANE.points),
        u=m.u.index,
        blocks=m.blocks,
        classes=tuple(class_record(c) for c in m.classes),
    )


def class_from_record(rec: ClassRecord) -> BlockClass:
    if rec.kind == KIND_CONIC:
        if rec.form is None:
            raise DesignFileError("conic record without a form")
        return ConicExterior(QuadraticForm.of(*rec.form))
    if rec.kind in (KIND_SYMDIFF, KIND_LINEPAIR):
        if rec.lines is None:
            raise DesignFileError(f"{rec.kind} record without lines")
        lines = tuple(PLANE.parse_line(s) for s in rec.lines)
        if rec.kind == KIND_SYMDIFF:
            return SymmetricDifference(lines)  # type: ignore[arg-type]
        return LinePairMinusU(lines)  # type: ignore[arg-type]
    raise DesignFileError(f"unknown class kind {rec.kind!r}")


def record_object(rec: ClassRecord) -> dict[str, Any]:
    """The JSON object of a class record: its kind, then its form or lines."""
    obj: dict[str, Any] = {"kind": rec.kind}
    if rec.form is not None:
        obj["form"] = list(rec.form)
    if rec.lines is not None:
        obj["lines"] = list(rec.lines)
    return obj


def witness_text(rec: ClassRecord) -> str:
    """A class record's witness as table text: 'form a,b,...' or 'lines x y'."""
    if rec.form is not None:
        return f"form {','.join(str(c) for c in rec.form)}"
    if rec.lines is not None:
        return f"lines {rec.lines[0]} {rec.lines[1]}"
    return ""


def render_structured(doc: DesignDocument) -> str:
    obj = {
        "format": FORMAT_NAME,
        "points": list(doc.points),
        "u": doc.u,
        "blocks": [list(b) for b in doc.blocks],
        "classes": [record_object(rec) for rec in doc.classes],
    }
    return json.dumps(obj, indent=2) + "\n"


def _is_int(x: Any) -> bool:
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def _is_point_index(x: Any) -> bool:
    return _is_int(x) and 0 <= x < len(PLANE.points)


def parse_structured(text: str) -> DesignDocument:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integer literals over the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise DesignFileError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise DesignFileError("top level must be an object")
    if obj.get("format") != FORMAT_NAME:
        raise DesignFileError(f"unknown format tag {obj.get('format')!r}")
    points = obj.get("points")
    if (
        not isinstance(points, list)
        or len(points) != 13
        or not all(isinstance(p, str) for p in points)
    ):
        raise DesignFileError("points must be 13 coordinate strings")
    u = obj.get("u")
    if not _is_point_index(u):
        raise DesignFileError("u must be a point index")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(_is_point_index(x) for x in b) for b in blocks
    ):
        raise DesignFileError("blocks must be lists of point indices")
    classes_raw = obj.get("classes")
    if not isinstance(classes_raw, list) or len(classes_raw) != len(blocks):
        raise DesignFileError("classes must parallel blocks")
    classes = []
    for entry in classes_raw:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise DesignFileError("each class needs a kind")
        form = entry.get("form")
        lines = entry.get("lines")
        if form is not None and (
            not isinstance(form, list) or not all(_is_int(x) for x in form)
        ):
            raise DesignFileError("form must be a list of ints")
        if lines is not None and (
            not isinstance(lines, list)
            or len(lines) != 2
            or not all(isinstance(x, str) for x in lines)
        ):
            raise DesignFileError("lines must be two coordinate strings")
        classes.append(
            ClassRecord(
                kind=entry["kind"],
                form=tuple(form) if form is not None else None,
                lines=tuple(lines) if lines is not None else None,
            )
        )
    return DesignDocument(
        points=tuple(points),
        u=u,
        blocks=tuple(tuple(b) for b in blocks),
        classes=tuple(classes),
    )


def check_document_frame(doc: DesignDocument) -> None:
    """Validate that the document's frame matches the canonical plane."""
    expected = tuple(p.coord_str() for p in PLANE.points)
    if doc.points != expected:
        raise DesignFileError("point coordinates do not match the canonical plane")


def render_table(doc: DesignDocument) -> str:
    lines = []
    lines.append("small Witt design S(5,6,12) over the projective plane of order 3")
    lines.append(f"removed point U: #{doc.u} ({doc.points[doc.u]})")
    lines.append("")
    lines.append("points (index: coordinates)")
    for i, coord in enumerate(doc.points):
        tag = "  <- U" if i == doc.u else ""
        lines.append(f"  #{i:<2} {coord}{tag}")
    lines.append("")
    lines.append(f"blocks ({len(doc.blocks)}, lexicographic)")
    for b, rec in zip(doc.blocks, doc.classes):
        pts = " ".join(f"{x:2d}" for x in b)
        lines.append(f"  {pts}   {rec.kind:<22} {witness_text(rec)}")
    counts: dict[str, int] = {}
    for rec in doc.classes:
        counts[rec.kind] = counts.get(rec.kind, 0) + 1
    lines.append("")
    census = "  ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
    lines.append(f"census: {census}")
    return "\n".join(lines) + "\n"
