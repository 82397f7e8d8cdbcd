"""Serialization tests: byte-level determinism and strict parsing."""

import json

import pytest

from witt12.design import construct, rederive_block
from witt12.designfile import (
    DesignFileError,
    check_document_frame,
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
    assert doc.u == 4
    assert len(doc.points) == 13
    assert doc.points[4] == "1:0:0"
    assert doc.blocks == model.blocks
    assert len(doc.classes) == 132


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


def test_frame_check(doc, text):
    check_document_frame(doc)
    bad = json.loads(text)
    bad["points"][0] = "1:1:1"
    with pytest.raises(DesignFileError):
        check_document_frame(parse_structured(json.dumps(bad)))


def test_table_rendering(doc):
    table = render_table(doc)
    lines = table.splitlines()
    assert "1:0:0" in lines[1]  # U is named up front
    block_rows = [ln for ln in lines if "conic_exterior" in ln and "form" in ln]
    assert len(block_rows) == 54
    assert "census: conic_exterior=54  line_pair_minus_u=42  symmetric_difference=36" in table
