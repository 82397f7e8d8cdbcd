"""Tests of scripts/same_outputs.py that run no command."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_command_list_covers_every_u_and_every_line_pair_in_both_formats():
    cmds = same_outputs.commands()
    assert len(cmds) == len({tuple(c) for c in cmds}) == 494
    assert Counter(c[0] for c in cmds) == {
        "table": 2, "aut": 26, "construct": 30, "classify": 26, "verify": 36, "block": 164,
        "remark3": 106, "derive": 104,
    }
    assert Counter(c[c.index("--format") + 1] for c in cmds) == {"table": 247, "structured": 247}
    assert all("--witnesses" in c for c in cmds if c[0] == "classify")
    # five distinct points of W by both methods, three five-sets at each U,
    # and, at U = #4, a repeated point and U itself among the five
    blocks = [c for c in cmds if c[0] == "block"]
    assert sum(len(set(c[1:6]) | {c[7]}) == 6 for c in blocks) == 156
    rejected = [c for c in blocks if len(set(c[1:6]) | {c[7]}) != 6]
    assert Counter((tuple(c[1:6]), c[7]) for c in rejected) == {
        (("#0", "#0", "#1", "#2", "#3"), "#4"): 4, (("#0", "#1", "#2", "#3", "#4"), "#4"): 4,
    }
    assert Counter(c[9] for c in blocks if c[8] == "--method") == {"lookup": 82, "solve": 82}
    pairs = {(c[2], c[4]) for c in cmds if c[0] == "derive"}
    assert len(pairs) == 52 and Counter(u for u, _ in pairs) == {f"#{u}": 4 for u in range(13)}
    # the canonical file of every U, one tampered, one formless, one reframed, one with a
    # bool coefficient and one missing
    files = Counter(c[-1] for c in cmds if c[0] == "verify")
    assert files == {
        **{f"design-{u}.json": 2 for u in range(13)},
        "tampered-4.json": 2, "formless-4.json": 2, "reframed-4.json": 2, "boolform-4.json": 2,
        "missing.json": 2,
    }
    # every construct writes its file, but the one with U = #13, which exits 2
    assert [c[2] for c in cmds if c[0] == "construct" and "--out" not in c] == ["#13", "#13"]
    # and the one into a missing directory, which exits 2 too
    outs = Counter(c[c.index("--out") + 1] for c in cmds if "--out" in c)
    assert outs == {"out.txt": 26, "no-such-dir/out.txt": 2}


def test_tamper_replaces_one_point_of_the_first_block():
    doc = {"u": 4, "blocks": [[0, 1, 2, 3, 5, 6], [0, 1, 2, 3, 7, 8]]}
    tampered = json.loads(same_outputs.tamper(json.dumps(doc)))
    assert tampered == {"u": 4, "blocks": [[0, 1, 2, 3, 5, 7], [0, 1, 2, 3, 7, 8]]}


def test_lose_form_drops_the_form_of_the_first_conic_record():
    doc = {
        "classes": [
            {"kind": "line_pair_minus_u", "lines": ["0:0:1", "0:1:0"]},
            {"kind": "conic_exterior", "form": [1, 0, 0, 1, 0, 1]},
            {"kind": "conic_exterior", "form": [1, 0, 0, 2, 0, 1]},
        ]
    }
    changed = json.loads(same_outputs.lose_form(json.dumps(doc)))
    assert changed["classes"][1] == {"kind": "conic_exterior"}
    assert changed["classes"][::2] == doc["classes"][::2]


def test_reframe_doubles_the_coordinates_of_the_first_point_only():
    doc = {"u": 4, "points": ["0:0:1", "0:1:0", "1:2:1"]}
    reframed = json.loads(same_outputs.reframe(json.dumps(doc)))
    assert reframed == {"u": 4, "points": ["0:0:2", "0:1:0", "1:2:1"]}


def test_bool_coefficient_writes_the_first_conic_coefficient_as_true():
    doc = {
        "classes": [
            {"kind": "line_pair_minus_u", "lines": ["0:0:1", "0:1:0"]},
            {"kind": "conic_exterior", "form": [1, 0, 0, 1, 0, 1]},
            {"kind": "conic_exterior", "form": [1, 0, 0, 2, 0, 1]},
        ]
    }
    text = same_outputs.bool_coefficient(json.dumps(doc))
    assert '"form": [\n        true,' in text
    changed = json.loads(text)
    assert changed["classes"][1] == {"kind": "conic_exterior", "form": [True, 0, 0, 1, 0, 1]}
    assert changed["classes"][::2] == doc["classes"][::2]
