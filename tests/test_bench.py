"""Tests of scripts/bench.py helpers that need no benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_src_lines_counts_only_the_package_modules(tmp_path):
    assert bench.src_lines(tmp_path) == 0  # no package at all
    pkg = tmp_path / "src" / "witt12"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub" / "c.py").write_text("not counted\n")
    (tmp_path / "src" / "d.py").write_text("not counted\n")
    assert bench.src_lines(tmp_path) == 4


def summary(per_seed):
    return {"per_seed": per_seed, "median": {k: sorted(v)[len(v) // 2] for k, v in per_seed.items()}}


def test_compare_adds_the_per_command_medians_both_trees_report():
    parent = summary({"op_p50_s": [0.2, 0.3, 0.4], "aut_p50_s": [0.2, 0.2, 0.2], "verify_p50_s": [0.1] * 3})
    change = summary({"op_p50_s": [0.1, 0.3, 0.5], "aut_p50_s": [0.1, 0.3, 0.1], "remark3_p50_s": [0.1] * 3})
    out = bench.compare(parent, change, {"op_p50_s": "lower"})
    # verify_p50_s and remark3_p50_s are reported by one tree only
    assert set(out) == {"op_p50_s", "aut_p50_s"}
    aut = out["aut_p50_s"]
    assert aut["change_wins"] == "2/3"  # lower is better
    assert (aut["parent_median"], aut["change_median"]) == (0.2, 0.1)
    assert aut["change_over_parent"] == 0.5
    assert aut["parent_iqr"] == 0.0


def test_a_bytecode_cache_under_src_stops_the_bench_before_any_run(tmp_path, monkeypatch, capsys):
    parent = tmp_path / "parent"
    cache = parent / "src" / "witt12" / "__pycache__"
    cache.mkdir(parents=True)
    (parent / "__pycache__").mkdir()  # outside src/, not reported
    assert bench.bytecode_caches(parent) == [cache]
    assert bench.bytecode_caches(tmp_path / "empty") == []
    monkeypatch.setattr(bench, "run_once", lambda *a, **k: pytest.fail("a benchmark run started"))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out), "--parent", str(parent)])
    with pytest.raises(SystemExit) as e:
        bench.main()
    assert e.value.code == 2
    assert f"remove the bytecode caches first: {cache}" in capsys.readouterr().err
    assert not out.exists()
