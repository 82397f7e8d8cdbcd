"""Tests of scripts/same_outputs.py that run no command."""

import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_command_list_covers_every_u_and_every_line_pair_in_both_formats():
    cmds = same_outputs.commands()
    assert len(cmds) == len({tuple(c) for c in cmds}) == 364
    assert Counter(c[0] for c in cmds) == {
        "aut": 26, "construct": 26, "classify": 26, "block": 78, "remark3": 104, "derive": 104,
    }
    assert Counter(c[c.index("--format") + 1] for c in cmds) == {"table": 182, "structured": 182}
    assert all("--out" in c for c in cmds if c[0] == "construct")
    assert all("--witnesses" in c for c in cmds if c[0] == "classify")
    # five distinct points of W through the lookup, three five-sets at each U
    blocks = [c for c in cmds if c[0] == "block"]
    assert all(c[8:10] == ["--method", "lookup"] and len(set(c[1:6]) | {c[7]}) == 6 for c in blocks)
    pairs = {(c[2], c[4]) for c in cmds if c[0] in ("remark3", "derive")}
    assert len(pairs) == 52 and Counter(u for u, _ in pairs) == {f"#{u}": 4 for u in range(13)}
