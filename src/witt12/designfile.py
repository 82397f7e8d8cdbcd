"""Serialization of a constructed design.

Two renderings of the same content: a human-readable table and a
machine-readable JSON document.  The document carries the 13 canonical
point coordinates in index order, the index of the removed point U, the
132 blocks in lexicographic order, and one witness object per block:
its kind, then its form or its two lines.  A document holds those JSON
objects themselves.  Emission is deterministic byte for byte; parsing
followed by re-emission reproduces the input exactly.
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


class DesignDocument(Record):
    points: tuple[str, ...]
    u: int
    blocks: tuple[Block, ...]
    classes: tuple[dict[str, Any], ...]  # the witness objects


def witness_object(cls_: BlockClass) -> dict[str, Any]:
    """A witness as its JSON object: its kind, then its form or lines."""
    if isinstance(cls_, ConicExterior):
        return {"kind": KIND_CONIC, "form": list(cls_.form.coeffs)}
    if isinstance(cls_, SymmetricDifference):
        kind = KIND_SYMDIFF
    elif isinstance(cls_, LinePairMinusU):
        kind = KIND_LINEPAIR
    else:
        raise TypeError(f"unknown block class {cls_!r}")
    return {"kind": kind, "lines": [ln.coord_str() for ln in cls_.lines]}


def document_from_model(m: WittModel) -> DesignDocument:
    return DesignDocument(
        points=tuple(p.coord_str() for p in PLANE.points),
        u=m.u.index,
        blocks=m.blocks,
        classes=tuple(witness_object(c) for c in m.classes),
    )


def class_from_record(obj: dict[str, Any]) -> BlockClass:
    """The witness a witness object names; ValueError when it names none."""
    kind = obj["kind"]
    if kind == KIND_CONIC:
        if "form" not in obj:
            raise DesignFileError("conic record without a form")
        return ConicExterior(QuadraticForm.of(*obj["form"]))
    if kind in (KIND_SYMDIFF, KIND_LINEPAIR):
        if "lines" not in obj:
            raise DesignFileError(f"{kind} record without lines")
        lines = tuple(PLANE.parse_line(s) for s in obj["lines"])
        if kind == KIND_SYMDIFF:
            return SymmetricDifference(lines)  # type: ignore[arg-type]
        return LinePairMinusU(lines)  # type: ignore[arg-type]
    raise DesignFileError(f"unknown class kind {kind!r}")


def witness_text(obj: dict[str, Any]) -> str:
    """A witness object as table text: 'form a,b,...' or 'lines x y'."""
    if "form" in obj:
        return f"form {','.join(str(c) for c in obj['form'])}"
    if "lines" in obj:
        return f"lines {obj['lines'][0]} {obj['lines'][1]}"
    return ""


def render_structured(doc: DesignDocument) -> str:
    obj = {
        "format": FORMAT_NAME,
        "points": list(doc.points),
        "u": doc.u,
        "blocks": [list(b) for b in doc.blocks],
        "classes": list(doc.classes),
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
        # in witness_object's key order, without nulls or other keys, so a
        # parsed document equals the document it was rendered from
        obj = {"kind": entry["kind"]}
        obj.update((k, entry[k]) for k in ("form", "lines") if entry.get(k) is not None)
        form, lines = obj.get("form"), obj.get("lines")
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
        classes.append(obj)
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
    for b, obj in zip(doc.blocks, doc.classes):
        pts = " ".join(f"{x:2d}" for x in b)
        lines.append(f"  {pts}   {obj['kind']:<22} {witness_text(obj)}")
    counts: dict[str, int] = {}
    for obj in doc.classes:
        counts[obj["kind"]] = counts.get(obj["kind"], 0) + 1
    lines.append("")
    census = "  ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
    lines.append(f"census: {census}")
    return "\n".join(lines) + "\n"
