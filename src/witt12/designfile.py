"""Serialization of a constructed design.

A design document is its JSON object, in memory as in the file: the
format tag, the 13 canonical point coordinates, the index of the removed
point U, the 132 blocks in lexicographic order and one witness object per
block (its kind, then its form or its two lines).  ``render_structured``
renders it, like every structured output of the CLI, deterministically;
``parse_structured`` checks a file's frame, has ``design.shaped_witness``
check each witness, and returns its document, which renders back to the
file's bytes when it is canonical.  ``render_table`` gives the lines of
its table.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterable

from .design import WittModel, is_int, shaped_witness
from .plane import PLANE

FORMAT_NAME = "witt12-design-v1"


class DesignFileError(ValueError):
    """Raised when a design document is structurally malformed."""


def document_from_model(m: WittModel) -> dict[str, Any]:
    """The design document of a model, sharing no list or dict with it."""
    return {
        "format": FORMAT_NAME,
        "points": [p.coord_str() for p in PLANE.points],
        "u": m.u.index,
        "blocks": [list(b) for b in m.blocks],
        "classes": [{k: list(v) if isinstance(v, list) else v for k, v in c.items()} for c in m.classes],
    }


def witness_text(obj: dict[str, Any]) -> str:
    """A shaped witness (it has a form or two lines) as table text: 'form a,b,...' or 'lines x y'."""
    if "form" in obj:
        return f"form {','.join(str(c) for c in obj['form'])}"
    return f"lines {obj['lines'][0]} {obj['lines'][1]}"


def render_structured(obj: Any) -> str:
    """A design document, or any structured CLI output, as JSON text."""
    return json.dumps(obj, indent=2) + "\n"


def _is_point_index(x: Any) -> bool:
    return is_int(x) and 0 <= x < len(PLANE.points)


def parse_structured(text: str) -> dict[str, Any]:
    """The design document of a file's text, with the shape of
    ``document_from_model``; DesignFileError when it is malformed."""
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
        try:
            classes.append(shaped_witness(entry))
        except ValueError as e:
            raise DesignFileError(str(e)) from None
    # last, so every shape error is reported first
    if points != [p.coord_str() for p in PLANE.points]:
        raise DesignFileError("point coordinates do not match the canonical plane")
    return {"format": FORMAT_NAME, "points": points, "u": u, "blocks": blocks, "classes": classes}


def census(classes: Iterable[dict[str, Any]]) -> dict[str, int]:
    """The number of witnesses of each kind, by kind name."""
    counts = Counter(c["kind"] for c in classes)
    return {kind: counts[kind] for kind in sorted(counts)}


def render_table(doc: dict[str, Any]) -> list[str]:
    """The lines of a design document's table rendering."""
    u, points, blocks, classes = doc["u"], doc["points"], doc["blocks"], doc["classes"]
    return [
        "small Witt design S(5,6,12) over the projective plane of order 3",
        f"removed point U: #{u} ({points[u]})",
        "",
        "points (index: coordinates)",
        *(f"  #{i:<2} {coord}{'  <- U' if i == u else ''}" for i, coord in enumerate(points)),
        "",
        f"blocks ({len(blocks)}, lexicographic)",
        *(
            f"  {' '.join(f'{x:2d}' for x in b)}   {obj['kind']:<22} {witness_text(obj)}"
            for b, obj in zip(blocks, classes)
        ),
        "",
        "census: " + "  ".join(f"{kind}={n}" for kind, n in census(classes).items()),
    ]
