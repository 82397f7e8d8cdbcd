"""Serialization of a constructed design.

Two renderings of the same content: a human-readable table and a
machine-readable JSON document.  The document carries the 13 canonical
point coordinates in index order, the index of the removed point U, the
132 blocks in lexicographic order, and one witness object per block:
its kind, then its form or its two lines.  A witness is that JSON
object in memory too: a document holds the model's witnesses as they
are, and ``design.rederive_block`` reads a parsed one directly.
Emission is deterministic byte for byte; parsing followed by
re-emission reproduces the input exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .checks import Record
from .design import Block, WittModel
from .plane import PLANE

FORMAT_NAME = "witt12-design-v1"


class DesignFileError(ValueError):
    """Raised when a design document is structurally malformed."""


class DesignDocument(Record):
    points: tuple[str, ...]
    u: int
    blocks: tuple[Block, ...]
    classes: tuple[dict[str, Any], ...]  # the witness objects


def document_from_model(m: WittModel) -> DesignDocument:
    return DesignDocument(
        points=tuple(p.coord_str() for p in PLANE.points),
        u=m.u.index,
        blocks=m.blocks,
        classes=m.classes,
    )


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
        # in a constructed witness's key order, without nulls or other keys, so a
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
