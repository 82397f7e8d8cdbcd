"""Serialization tests: byte-level determinism and strict parsing."""

import copy
import json

import pytest

from witt12.design import construct, rederive_block
from witt12.designfile import (
    DesignFileError,
    census,
    document_from_model,
    parse_structured,
    render_structured,
    render_table,
)
from witt12.plane import PLANE


@pytest.fixture(scope="module")
def doc(model):
    return document_from_model(model)


@pytest.fixture(scope="module")
def text(doc):
    return render_structured(doc)


def test_round_trip_is_byte_identical(doc, text):
    assert parse_structured(text) == doc
    again = render_structured(parse_structured(text))
    assert again == text


def test_independent_constructions_render_identically(text):
    fresh = render_structured(document_from_model(construct()))
    assert fresh == text


def test_document_content(model, doc):
    assert list(doc) == ["format", "points", "u", "blocks", "classes"]
    assert doc["format"] == "witt12-design-v1"
    assert doc["u"] == 4
    assert len(doc["points"]) == 13
    assert doc["points"][4] == "1:0:0"
    assert doc["blocks"] == [list(b) for b in model.blocks]
    assert doc["classes"] == list(model.classes)
    assert len(doc["classes"]) == 132


def test_document_shares_nothing_with_the_model():
    m = construct()
    before = render_structured(document_from_model(m))
    frozen = copy.deepcopy(m.classes)
    d = document_from_model(m)
    conic = next(c for c in d["classes"] if "form" in c)
    pair = next(c for c in d["classes"] if "lines" in c)
    conic["form"][0] += 1
    pair["lines"][0] = "#7"
    d["classes"][0]["kind"] = "edited"
    d["blocks"][0][0] = 12
    assert m.classes == frozen
    assert render_structured(document_from_model(m)) == before


@pytest.mark.parametrize("u", range(13))
def test_class_records_round_trip(u):
    # each witness object comes back from JSON unchanged, key order too,
    # and re-derives its block
    m = construct(PLANE.points[u])
    for obj, b in zip(m.classes, m.blocks):
        again = json.loads(json.dumps(obj))
        assert again == obj and list(again) == list(obj)
        assert rederive_block(again, m.u) == b


def test_parse_rejects_truncation(text):
    with pytest.raises(DesignFileError):
        parse_structured(text[: len(text) // 2])


def test_parse_rejects_wrong_shape(text):
    obj = json.loads(text)
    for mutate in (
        lambda o: o.__setitem__("format", "something-else"),
        lambda o: o.__setitem__("points", o["points"][:12]),
        lambda o: o.__setitem__("u", 13),
        lambda o: o.__setitem__("u", "four"),
        lambda o: o.__setitem__("blocks", "nope"),
        lambda o: o.__setitem__("classes", o["classes"][:5]),
        lambda o: o["classes"][0].pop("kind"),
        lambda o: o["classes"][3].__setitem__("lines", ["1:0:0"]),
    ):
        bad = json.loads(text)
        mutate(bad)
        with pytest.raises(DesignFileError):
            parse_structured(json.dumps(bad))
    with pytest.raises(DesignFileError):
        parse_structured("[1, 2]")
    with pytest.raises(DesignFileError):
        parse_structured("{ not json")


def test_frame_check(text):
    bad = json.loads(text)
    bad["points"][0] = "1:1:1"
    with pytest.raises(DesignFileError, match="^point coordinates do not match the canonical plane$"):
        parse_structured(json.dumps(bad))
    # a shape error is reported before the frame
    bad["u"] = 13
    with pytest.raises(DesignFileError, match="^u must be a point index$"):
        parse_structured(json.dumps(bad))


@pytest.mark.parametrize(
    "points",
    [None, "1:0:0", ["0:0:1"] * 12, [[0, 0, 1]] * 13],
    ids=["missing", "string", "twelve", "lists"],
)
def test_points_must_be_13_coordinate_strings(text, points):
    bad = json.loads(text)
    bad["points"] = points
    with pytest.raises(DesignFileError, match="^points must be 13 coordinate strings$"):
        parse_structured(json.dumps(bad))


def test_census_counts_each_kind_in_name_order(doc):
    counts = census(doc["classes"])
    assert counts == {"conic_exterior": 54, "line_pair_minus_u": 42, "symmetric_difference": 36}
    assert list(counts) == sorted(counts)
    assert census([]) == {}


def test_table_rendering(doc):
    lines = render_table(doc)
    assert all("\n" not in ln for ln in lines)
    assert "1:0:0" in lines[1]  # U is named up front
    block_rows = [ln for ln in lines if "conic_exterior" in ln and "form" in ln]
    assert len(block_rows) == 54
    assert lines[-1] == "census: conic_exterior=54  line_pair_minus_u=42  symmetric_difference=36"
