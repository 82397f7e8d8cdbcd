"""Tests of the benchmark itself (not collected by the repository's suite).

    python -m pytest -q perfbench/selftest.py

The smoke and agreement tests start real witt12 processes and take about
a minute in all.
"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "stream", [workloads.cli_design_rounds, workloads.cli_group_rounds, workloads.lib_solve_ops]
)
def test_same_seed_gives_same_operations(stream):
    first = list(islice(stream(7), 40))
    assert first == list(islice(stream(7), 40))
    assert first != list(islice(stream(8), 40))


def _cli(cmd, cwd):
    p = subprocess.run(cmd, cwd=cwd, env=run.child_env(), capture_output=True, timeout=120)
    return p.returncode, p.stdout


def test_traced_and_untraced_commands_agree(tmp_path):
    group = next(workloads.cli_group_rounds(3))
    ops = next(workloads.cli_design_rounds(3)) + [
        next(op for op in group if op[0] == kind) for kind in ("aut", "remark3")
    ]
    assert {op[0] for op in ops} == {
        "construct", "verify", "reject", "solve", "classify", "derive", "table", "aut", "remark3",
    }
    for op in ops:
        args = workloads.argv(op)
        plain = _cli([sys.executable, "-m", "witt12.cli", *args], tmp_path)
        written = (tmp_path / workloads.design_file(op[1])).read_bytes() if op[0] == "construct" else None
        traced = _cli(
            [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"), str(tmp_path / "spans.json"), "0", *args],
            tmp_path,
        )
        assert traced == plain, op
        assert json.loads((tmp_path / "spans.json").read_text()), op
        if op[0] == "construct":
            assert (tmp_path / workloads.design_file(op[1])).read_bytes() == written
            for other in ops:
                if other[0] == "reject":
                    (tmp_path / workloads.tampered_file(op[1])).write_bytes(workloads.tamper(written, other))


def test_checks_reject_wrong_outputs():
    d = oracle.Design(4)
    good = json.dumps(
        {
            "format": oracle.FORMAT_TAG,
            "points": list(oracle.COORDS),
            "u": 4,
            "blocks": sorted(list(b) for b in d.blocks),
            "classes": [{}] * 132,
        }
    ).encode()
    assert oracle.check_construct(d, 0, good) is None
    reject_op = ("reject", 4, 5, 2, 1)
    assert oracle.check_construct(d, 0, workloads.tamper(good, reject_op)) is not None
    assert oracle.check_construct(d, 1, good) is not None
    five = (0, 1, 2, 3, 5)
    block = d.block_through(five)
    wrong = sorted(set(d.w) - set(block))[:1] + list(block[1:])
    report = {"block": wrong, "case": "A", "determinant": 1, "form": [1, 0, 0, 0, 0, 0]}
    assert oracle.check_solve(d, five, 0, json.dumps(report).encode()) is not None
    assert oracle.check_reject(0, b"VIOLATION: x")[0] is not None
    assert oracle.check_reject(1, b"VIOLATION: x") == (None, False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-design", "cli-group", "lib-solve"])
def test_smoke_run_reports_every_metric(workload, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-design", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode != 0
    assert p.stdout == ""
