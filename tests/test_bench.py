"""Tests of scripts/bench.py helpers that need no benchmark run."""

import importlib.util
from pathlib import Path

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
