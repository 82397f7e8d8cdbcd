"""The witt12 benchmark: three seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload cli-design|cli-group|lib-solve|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the tree under ``src/``,
never an installed copy.  Every operation's output is checked against an
independent model (``oracle.py``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The line before it is a JSON report with every
metric, its sample count and the run's environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-design", "cli-group", "lib-solve")
CLI_SETUPS = 7
LIB_SETUPS = 3
OP_TIMEOUT_S = 60
P90_MIN_SAMPLES = 100
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LOCATE = (
    "import importlib.metadata, importlib.util, json; "
    "s = importlib.util.find_spec('witt12'); "
    "print(json.dumps({'witt12': s.origin if s else None, "
    "'numpy': importlib.metadata.version('numpy')}))"
)
COMMAND_METRICS = {
    "cli-design": {
        "construct": "construct_p50_s",
        "verify": "verify_p50_s",
        "reject": "reject_p50_s",
        "solve": "solve_cmd_p50_s",
    },
    "cli-group": {"aut": "aut_p50_s", "remark3": "remark3_p50_s"},
    "lib-solve": {},
}


class Abort(Exception):
    """The program under test cannot be run from this tree."""


def child_env() -> dict[str, str]:
    # BLAS thread variables are inherited as they are, so numpy's thread
    # pool start-up stays part of the measured cost
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def under_src(path: str | None) -> bool:
    return path is not None and os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


class Run:
    """State of one workload run: its work dir, records and counters."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.env = child_env()
        self.designs = oracle.reference_designs()
        self.first_bytes: dict[int, bytes] = {}
        self.records: list[dict] = []  # one per executed CLI operation
        self.attempted = 0
        self.failures: list[str] = []
        self.reject_unparsable = 0
        self.ref: dict = {}
        self.traced: dict = {}
        self.imports: dict[str, list[float]] = {"witt12": [], "numpy": []}
        self.located: dict = {}

    # -- set-up -------------------------------------------------------

    def locate(self) -> None:
        p = subprocess.run(
            [sys.executable, "-c", LOCATE], cwd=self.work, env=self.env,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        info = json.loads(p.stdout) if p.returncode == 0 else {}
        if not under_src(info.get("witt12")):
            raise Abort(f"witt12 does not resolve under {SRC}: {info or p.stderr.strip()}")
        self.located = info

    # -- CLI operations -------------------------------------------------

    def run_cli(self, op, traced: bool, op_id: int) -> None:
        args = workloads.argv(op)
        spans = self.work / f"spans-{op_id}.json"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"), str(spans), str(op_id), *args]
        else:
            cmd = [sys.executable, "-m", "witt12.cli", *args]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out_f, open(err_path, "wb") as err_f:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out_f, stderr=err_f)
            watchdog = threading.Timer(OP_TIMEOUT_S, p.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own CPU time and peak RSS
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
            dt = time.perf_counter() - t0
        p.returncode = rc = os.waitstatus_to_exitcode(status)
        out, err = out_path.read_bytes(), err_path.read_bytes()
        try:
            reason = f"killed by signal {-rc}" if rc < 0 else self.check(op, rc, out)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
            reason = f"malformed output: {e!r}"
        if reason is None and b"Traceback" in err:
            reason = "traceback on stderr"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op}: {reason}")
        self.records.append(
            {
                "kind": op[0],
                "s": dt,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_kb": usage.ru_maxrss,
                "traced": traced,
                "ref": op_id < 0,
            }
        )
        if traced:
            for name, secs in tracing.import_times(err.decode(errors="replace")).items():
                self.imports[name].append(secs)
            if spans.exists():
                tracing.merge(self.traced if op_id >= 0 else self.ref, tracing.summarise(json.loads(spans.read_text())))
                spans.unlink()

    def check(self, op, rc: int, out: bytes) -> str | None:
        kind = op[0]
        d = self.designs[op[1]] if len(op) > 1 else None
        if kind == "construct":
            path = self.work / workloads.design_file(d.u)
            data = path.read_bytes() if path.exists() else b""
            reason = oracle.check_construct(d, rc, data)
            if reason is None and self.first_bytes.setdefault(d.u, data) != data:
                reason = "design file bytes changed within the run"
            return reason
        if kind == "verify":
            return oracle.check_verify(rc, out)
        if kind == "reject":
            reason, parsed = oracle.check_reject(rc, out)
            self.reject_unparsable += not parsed
            return reason
        if kind == "solve":
            return oracle.check_solve(d, op[2], rc, out)
        if kind == "classify":
            return oracle.check_classify(d, rc, out)
        if kind == "derive":
            return oracle.check_derive(d, op[2], rc, out)
        if kind == "table":
            return oracle.check_table(rc, out)
        if kind == "aut":
            return oracle.check_aut(d, rc, out)
        return oracle.check_remark3(op[2], rc, out)

    def write_tampered(self, rnd) -> None:
        for op in rnd:
            if op[0] == "reject":
                src = self.work / workloads.design_file(op[1])
                data = src.read_bytes() if src.exists() else b"{}"
                try:
                    data = workloads.tamper(data, op)
                except (ValueError, KeyError, IndexError, TypeError):
                    pass  # the reject op then fails on its exit code
                (self.work / workloads.tampered_file(op[1])).write_bytes(data)

    def run_round(self, rnd, trace: bool, first_id: int, deadline: float | None) -> int:
        """Runs one round of operations numbered from first_id.

        In a traced run each seeded operation runs untraced and traced, in
        alternating order; the reference operations (negative ids) run
        traced only.
        """
        for k, op in enumerate(rnd):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            op_id = first_id + k
            if not trace:
                order = (False,)
            elif op_id < 0:
                order = (True,)
            else:
                order = (False, True) if op_id % 2 == 0 else (True, False)
            for traced in order:
                self.run_cli(op, traced, op_id)
            if op[0] == "construct":
                self.write_tampered(rnd)
        return first_id + len(rnd)


# -- workloads ----------------------------------------------------------


def cli_workload(run: Run, seconds: float, trace: bool) -> dict:
    rounds_of = workloads.cli_design_rounds if run.workload == "cli-design" else workloads.cli_group_rounds
    setups = []
    for _ in range(1 if trace else CLI_SETUPS):
        t0 = time.perf_counter()
        run.locate()
        rounds = rounds_of(run.seed)
        setups.append(time.perf_counter() - t0)
    if trace:
        # the fixed reference operations have negative ids: their counts
        # go to run.ref, the seeded operations' spans to run.traced
        run.run_round(workloads.REFERENCE[run.workload], True, -1000, None)
    start = time.perf_counter()
    deadline = start + seconds
    op_id = 0
    for rnd in rounds:
        if run.attempted and time.perf_counter() >= deadline:
            break
        # untraced runs measure whole rounds, so each sample holds a fixed
        # mix of commands; traced runs stop at the deadline
        op_id = run.run_round(rnd, trace, op_id, deadline if trace else None)
    wall = time.perf_counter() - start
    seeded = [r for r in run.records if not r["ref"]]
    return {
        "setups": setups,
        "wall_s": wall,
        "peak_rss_kb": max(r["rss_kb"] for r in run.records),
        "child_cpu": [r["cpu_s"] for r in seeded if not r["traced"]],
    }


def lib_workload(run: Run, seconds: float, trace: bool) -> dict:
    setups, result = [], None
    n = 1 if trace else LIB_SETUPS
    for k in range(n):
        last = k == n - 1
        cmd = [
            sys.executable, *(["-X", "importtime"] if trace else []), str(BENCH / "lib_worker.py"),
            str(SRC), str(run.seed), str(seconds), "1" if trace else "0", *([] if last else ["setup-only"]),
        ]
        err_path = run.work / f"worker-{k}.err"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=run.work, env=run.env, stdout=subprocess.PIPE, stderr=err, text=True)
            watchdog = threading.Timer(seconds + OP_TIMEOUT_S, p.kill)
            watchdog.start()
            try:
                ready = p.stdout.readline()
                setups.append(time.perf_counter() - t0)
                if not ready:
                    raise Abort(f"lib-solve worker failed to start: {err_path.read_text().strip()}")
                rest = p.stdout.read()
                if last and rest:
                    result = json.loads(rest)
            finally:
                watchdog.cancel()
                if p.poll() is None:
                    p.kill()
                p.wait()
                p.stdout.close()
    if result is None:
        raise Abort(f"lib-solve worker gave no result: {err_path.read_text().strip()}")
    run.attempted, run.failures = result["attempted"], result["failures"]
    info = {
        "setups": setups,
        "wall_s": result["wall_s"],
        "peak_rss_kb": result["rss_kb"],
        "lat": result["lat"],
        "child_cpu": [json.loads(ready)["cpu_s"]],
    }
    if trace:
        run.ref, run.traced = result["ref"], result["traced"]
        for name, secs in tracing.import_times(err_path.read_text(errors="replace")).items():
            run.imports[name].append(secs)
        info["lat_traced"], info["lat_untraced"] = result["lat_traced"], result["lat_untraced"]
    return info


# -- metrics --------------------------------------------------------------


def end_to_end(run: Run, info: dict) -> tuple[dict, dict]:
    """(contract metrics, every end-to-end metric with its sample count)."""
    if run.workload == "lib-solve":
        by_kind = info["lat"]
    else:
        by_kind = {}
        for r in run.records:
            by_kind.setdefault(r["kind"], []).append(r["s"])
    lat = [x for xs in by_kind.values() for x in xs if not math.isnan(x)]
    attempted, failed = run.attempted, len(run.failures)
    every = {
        "setup_s": (median(info["setups"]), "s", len(info["setups"])),
        "op_p50_s": (median(lat), "s", len(lat)),
        "ops_per_s": ((attempted - failed) / info["wall_s"], "1/s", attempted),
        "peak_rss_mb": (info["peak_rss_kb"] / 1024, "MB", 1),
        "fail_ratio": (failed / attempted, "ratio", attempted),
    }
    if len(lat) >= P90_MIN_SAMPLES:
        every["op_p90_s"] = (p90(lat), "s", len(lat))
    for kind, name in COMMAND_METRICS[run.workload].items():
        xs = [x for x in by_kind.get(kind, []) if not math.isnan(x)]
        every[name] = (median(xs), "s", len(xs))
    if run.workload == "cli-design":
        every["cli.reject_json_unparsable"] = (run.reject_unparsable, "count", len(by_kind.get("reject", [])))
    contract = {k: every[k] for k in ("setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb")}
    return contract, every


def per_layer(run: Run, info: dict) -> dict:
    """Per-layer metrics of a traced run, each with its sample count.

    Times are seconds per traced seeded operation.  Counts come from the
    fixed U = #4 reference operations, so they repeat exactly.
    """
    if run.workload == "lib-solve":
        traced, untraced = info["lat_traced"], info["lat_untraced"]
    else:
        seeded = [r for r in run.records if not r["ref"]]
        traced = [r["s"] for r in seeded if r["traced"]]
        untraced = [r["s"] for r in seeded if not r["traced"]]
    n = len(traced)
    tr, ref = run.traced, run.ref

    def per_op(name, key):
        return (tr.get(name, {}).get(key, 0) / n if n else 0.0, "s", n)

    def count(name, key="calls", unit="count"):
        return (ref.get(name, {}).get(key, 0), unit, 1)

    def ratio(name, num, den, unit):
        agg = ref.get(name, {})
        return (agg.get(num, 0) / agg[den] if agg.get(den) else 0.0, unit, agg.get(den, 0))

    cpu = info["child_cpu"]
    return {
        "startup.import_witt12_s": (median(run.imports["witt12"]), "s", len(run.imports["witt12"])),
        "startup.import_numpy_s": (median(run.imports["numpy"]), "s", len(run.imports["numpy"])),
        "startup.child_cpu_s": (median(cpu), "s", len(cpu)),
        "cli.main.self_s": per_op("cli.main", "self_s"),
        "cli.reject_json_unparsable": (run.reject_unparsable, "count", 1),
        "design.construct.s": per_op("design.construct", "s"),
        "design.solve_block_through.s": per_op("design.solve_block_through", "s"),
        "design.solve.case_a": count("design.solve_block_through", "case_a"),
        "design.solve.case_b": count("design.solve_block_through", "case_b"),
        "design.rederive_block.s": per_op("design.rederive_block", "s"),
        "gf3.null_space.calls": count("gf3.null_space"),
        "gf3.null_space.s": per_op("gf3.null_space", "s"),
        "gf3.det.calls": count("gf3.det"),
        "gf3.det.s": per_op("gf3.det", "s"),
        "quadrics.form_pair_representatives.s": per_op("quadrics.form_pair_representatives", "s"),
        "quadrics.conic_geometry.s": per_op("quadrics.conic_geometry", "s"),
        "quadrics.level_set.s": per_op("quadrics.level_set", "s"),
        "plane.point_from_vec.calls": count("plane.point_from_vec"),
        "checks.verify_t_design.s": per_op("checks.verify_t_design", "s"),
        "designfile.render_structured.s": per_op("designfile.render_structured", "s"),
        "designfile.parse_structured.s": per_op("designfile.parse_structured", "s"),
        "designfile.bytes_out": count("designfile.render_structured", "bytes_out", "bytes"),
        "designfile.bytes_in": count("designfile.parse_structured", "bytes_in", "bytes"),
        "symmetry.all_automorphisms.s": per_op("symmetry.all_automorphisms", "s"),
        "symmetry.all_automorphisms.rows": ratio("symmetry.all_automorphisms", "rows", "calls", "count"),
        "symmetry.automorphism_group.self_s": per_op("symmetry.automorphism_group", "self_s"),
        "symmetry.group_closure.calls": count("symmetry.group_closure"),
        "symmetry.group_closure.s": per_op("symmetry.group_closure", "s"),
        "symmetry.group_closure.useful_ratio": ratio("symmetry.group_closure", "full", "calls", "ratio"),
        "symmetry.stabilizer_of.s": per_op("symmetry.stabilizer_of", "s"),
        "symmetry.affinities.s": per_op("symmetry.affinities", "s"),
        "symmetry.verify_extension_formula.self_s": per_op("symmetry.verify_extension_formula", "self_s"),
        "trace.overhead_op_p50_s": (median(traced) - median(untraced), "s", min(n, len(untraced))),
        "trace.traced_ops": (n, "count", n),
    }


# -- reporting --------------------------------------------------------------


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
    return {"sha": sha.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        load_start = os.getloadavg()
        run = Run(workload, seed, work)
        if workload == "lib-solve":
            run.locate()
            info = lib_workload(run, seconds, trace)
        else:
            info = cli_workload(run, seconds, trace)
        if trace:
            every = per_layer(run, info)
            contract = every
        else:
            contract, every = end_to_end(run, info)
        meta = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            **git_state(),
            "python": platform.python_version(),
            "numpy": run.located.get("numpy"),
            "witt12": run.located.get("witt12"),
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "child_env": {
                "PYTHONHASHSEED": run.env["PYTHONHASHSEED"],
                "PYTHONPATH": run.env["PYTHONPATH"],
                **{v: run.env.get(v, "default") for v in BLAS_VARS},
            },
            "failures": run.failures[:10],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted, failed = run.attempted, len(run.failures)
    return {
        "meta": meta,
        "every": every,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in contract.items()},
        },
    }


def print_report(rep: dict) -> None:
    meta = rep["meta"]
    print(
        f"{meta['workload']}: seed {meta['seed']}, {meta['seconds']:g} s, trace {meta['trace']}, "
        f"{rep['result']['attempted']} operations, {rep['result']['failed']} failed"
    )
    for name, (value, unit, n) in rep["every"].items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    for reason in meta["failures"]:
        print(f"  FAILED: {reason}")
    report = {"meta": meta, "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rep["every"].items()}}
    print(json.dumps(report, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "witt12" / "__init__.py").is_file():
        print(f"error: no witt12 source tree at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except Abort as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for rep in reports:
        print_report(rep)
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {
                f"{r['meta']['workload']}.{k}": v for r in reports for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
