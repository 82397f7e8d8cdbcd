#!/usr/bin/env python3
"""Median benchmark metrics over several seeds, written to one JSON file.

A thin wrapper over ``perfbench/run.py``: for each seed and each of the
workloads of BENCHMARK.json it runs the untraced benchmark (the
end-to-end metrics), and once per workload the traced one (the per-layer
metrics, first seed only), each for BENCHMARK.json's ``run_seconds``.
It writes the medians and per-seed values with the git SHA, the Python
version, ``nproc`` and each tree's ``src_lines``, the line count of
``src/witt12/*.py``.

    python3 scripts/bench.py --out BENCH_7.json [--seeds 10] [--parent DIR]

With ``--parent DIR`` (a second checkout, for example of the parent
commit) every run of this tree is paired with a run of DIR on the same
seed and workload, the parent first on odd seeds and second on even
ones, and the file also records, per end-to-end metric, the ratio of
the medians, how many pairs this tree won and the parent's
interquartile range; the per-command medians (``aut_p50_s`` and the
like) are compared the same way, lower being better.

It stops before the first run if either tree holds a ``__pycache__``
under ``src/``: perfbench's children do not write bytecode, so a cache
left by an earlier in-process run would spare one tree the compiling of
the package on every cold command and skew the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-command latency medians perfbench reports beside the end-to-end metrics
COMMAND_P50S = (
    "aut_p50_s", "remark3_p50_s", "construct_p50_s", "verify_p50_s", "reject_p50_s", "solve_cmd_p50_s",
)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run of the tree; its JSON report and result lines."""
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {p.returncode}: {p.stderr.strip()}")
    *_, report, result = p.stdout.strip().splitlines()
    return {"report": json.loads(report), "result": json.loads(result)}


def src_lines(tree: Path) -> int:
    """Lines of the package sources, src/witt12/*.py, in the tree."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "witt12").glob("*.py"))


def bytecode_caches(tree: Path) -> list[Path]:
    """The __pycache__ directories under the tree's src/."""
    return sorted((tree / "src").rglob("__pycache__"))


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarise(runs: list[dict]) -> dict:
    """Medians of every reported metric over the runs (the end-to-end ones
    and the per-command latencies), with the per-seed values."""
    names = [k for k in runs[0]["report"]["metrics"] if all(k in r["report"]["metrics"] for r in runs)]
    per_seed = {k: [r["report"]["metrics"][k]["value"] for r in runs] for k in names}
    return {
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "median": {k: statistics.median(v) for k, v in per_seed.items()},
        "per_seed": per_seed,
    }


def compare(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per metric: pairs this tree won, the ratio of medians, the parent's IQR.

    The per-command medians that both trees report join the given
    metrics, lower being better, so the file shows which command moved.
    """
    both = parent["per_seed"].keys() & change["per_seed"].keys()
    better = {**better, **{k: "lower" for k in COMMAND_P50S if k in both}}
    out = {}
    for k, direction in better.items():
        pv, cv = parent["per_seed"][k], change["per_seed"][k]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(pv, cv))
        q1, q3 = quartiles(pv)
        pm, cm = parent["median"][k], change["median"][k]
        out[k] = {
            "parent_median": pm,
            "change_median": cm,
            "change_over_parent": cm / pm if pm else None,
            "change_wins": f"{wins}/{len(pv)}",
            "parent_iqr": q3 - q1,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, default=5, help="seeds 1..N per workload (at least 5)")
    parser.add_argument("--parent", type=Path, help="a second checkout to pair every run with")
    args = parser.parse_args()
    if args.seeds < 5:
        parser.error("--seeds must be at least 5")
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
    caches = [c for tree in trees.values() for c in bytecode_caches(tree)]
    if caches:
        parser.error("remove the bytecode caches first: " + ", ".join(str(c) for c in caches))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))

    out: dict = {
        "seeds": seeds,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
        "trees": {label: {"src_lines": src_lines(tree), "workloads": {}} for label, tree in trees.items()},
    }
    for workload in workloads:
        runs: dict[str, list[dict]] = {label: [] for label in trees}
        for seed in seeds:
            order = list(trees) if seed % 2 else list(reversed(trees))
            for label in order:
                print(f"{workload} seed {seed} {label}", file=sys.stderr, flush=True)
                runs[label].append(run_once(trees[label], workload, seed, seconds, trace=False))
        for label, tree in trees.items():
            print(f"{workload} traced {label}", file=sys.stderr, flush=True)
            traced = run_once(tree, workload, seeds[0], seconds, trace=True)
            meta = runs[label][0]["report"]["meta"]
            out["trees"][label].update(sha=meta["sha"], dirty=meta["dirty"])
            out["trees"][label]["workloads"][workload] = {
                **summarise(runs[label]),
                "traced": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            }
        if args.parent is not None:
            out.setdefault("comparison", {})[workload] = compare(
                *(out["trees"][label]["workloads"][workload] for label in ("parent", "change")), better
            )
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
