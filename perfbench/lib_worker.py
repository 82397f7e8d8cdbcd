"""The warm process of the lib-solve workload.

    python perfbench/lib_worker.py SRC_DIR SEED SECONDS TRACE [setup-only]

Set-up imports witt12, which must resolve under SRC_DIR, and constructs
the design for all 13 choices of U; the process then prints one JSON line
saying it is ready.  Unless told to stop there, it runs the seeded stream
of ``workloads.lib_solve_ops`` in a closed loop for SECONDS and prints a
second JSON line with latencies, failures and, when TRACE is 1, the span
summaries.  In a traced run each operation runs once untraced and once
traced, in alternating order, after the fixed U = #4 reference pass.
"""

import json
import os
import resource
import sys
import time
from array import array


def main() -> int:
    src, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    import witt12

    if not os.path.realpath(witt12.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"witt12 resolves to {witt12.__file__}, outside {src}", file=sys.stderr)
        return 2
    points = witt12.PLANE.points
    models = {u: witt12.construct(points[u]) for u in range(len(points))}
    ru = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"ready": True, "cpu_s": ru.ru_utime + ru.ru_stime}), flush=True)
    if sys.argv[5:] == ["setup-only"]:
        return 0

    from tracing import Tracer, merge, summarise
    from workloads import REFERENCE, lib_solve_ops

    clock = time.perf_counter
    expected = witt12.DesignParams(5, 12, 6, 1)
    failures: list[str] = []
    attempted = 0

    def run(op) -> float:
        nonlocal attempted
        attempted += 1
        kind, u = op[0], op[1]
        try:
            if kind == "solve":
                pt = points[u]
                t0 = clock()
                sol = witt12.solve_block_through(op[2], pt)
                dt = clock() - t0
                ok = set(op[2]) <= set(sol.block) and sol.block == witt12.block_through(models[u], op[2])
            else:
                t0 = clock()
                res = witt12.verify_t_design(witt12.as_incidence_structure(models[u]), 5)
                dt = clock() - t0
                ok = res == expected
        except Exception as e:  # a crash is a failed operation, not a crashed benchmark
            failures.append(f"{op}: {e!r}")
            return float("nan")
        if not ok:
            failures.append(f"{op}: wrong result")
        return dt

    # compact arrays: the benchmark's own memory must not grow with the
    # program's speed, since peak RSS is one of the measured metrics
    lat = {"solve": array("d"), "verify": array("d")}
    out: dict = {"lat": lat}
    tracer = Tracer()
    if trace:
        tracer.install()
        for op in REFERENCE["lib-solve"]:
            run(op)
        tracer.uninstall()
        out["ref"] = summarise(tracer.spans)
        tracer.spans.clear()
        out["traced"], out["lat_traced"], out["lat_untraced"] = {}, array("d"), array("d")
    start = clock()
    deadline = start + seconds
    for i, op in enumerate(lib_solve_ops(seed)):
        if clock() >= deadline:
            break
        if not trace:
            lat[op[0]].append(run(op))
            continue
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                tracer.install()
                out["lat_traced"].append(run(op))
                tracer.uninstall()
                merge(out["traced"], summarise(tracer.spans))
                tracer.spans.clear()
            else:
                out["lat_untraced"].append(run(op))
    out["wall_s"] = clock() - start
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["attempted"] = attempted
    out["failures"] = failures
    print(json.dumps(out, default=array.tolist))
    return 0


if __name__ == "__main__":
    sys.exit(main())
