"""Spans around calls into witt12's modules, recorded from outside the package.

``Tracer.install`` replaces each traced function at every name a caller
can look it up by: ``from .gf3 import null_space`` in ``design`` copies
the binding, so ``witt12.design.null_space`` is wrapped as well as
``witt12.gf3.null_space``.  A span is ``[name, start, end, parent, op,
notes]``; spans stay in memory until the caller writes or folds them.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of each traced function, with an optional function
# of (result, args) that returns counters to attach to the span
TRACED = {
    ("witt12.cli", "main"): None,
    ("witt12.design", "construct"): None,
    ("witt12.design", "solve_block_through"): lambda r, a: {"case_" + r.case.lower(): 1},
    ("witt12.design", "rederive_block"): None,
    ("witt12.gf3", "null_space"): None,
    ("witt12.gf3", "det"): None,
    ("witt12.quadrics", "form_pair_representatives"): None,
    ("witt12.quadrics", "conic_geometry"): None,
    ("witt12.quadrics", "level_set"): None,
    ("witt12.plane", "PlaneModel.point_from_vec"): None,
    ("witt12.checks", "verify_t_design"): None,
    ("witt12.designfile", "render_structured"): lambda r, a: {"bytes_out": len(r.encode())},
    ("witt12.designfile", "parse_structured"): lambda r, a: {"bytes_in": len(a[0].encode())},
    ("witt12.symmetry", "all_automorphisms"): lambda r, a: {"rows": len(r)},
    ("witt12.symmetry", "automorphism_group"): lambda r, a: {"order": r.order},
    # a closure is useful when it reaches the whole group, of order 95040
    ("witt12.symmetry", "group_closure"): lambda r, a: {"full": int(len(r) == 95040)},
    ("witt12.symmetry", "stabilizer_of"): None,
    ("witt12.symmetry", "affinities"): None,
    ("witt12.symmetry", "verify_extension_formula"): None,
}


def span_name(module: str, attr: str) -> str:
    return module.split(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function of the loaded witt12 modules at every binding."""
        if not self._bindings:
            modules = [m for n, m in sys.modules.items() if n == "witt12" or n.startswith("witt12.")]
            for (mod_name, attr), note in TRACED.items():
                owner = sys.modules.get(mod_name)
                if owner is None:  # never imported, so never called
                    continue
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    fn = owner.__dict__[attr]
                    wrapped = self._wrap(span_name(mod_name, attr), fn, note)
                    self._bindings.append((owner, attr, fn, wrapped))
                    continue
                fn = getattr(owner, attr)
                wrapped = self._wrap(span_name(mod_name, attr), fn, note)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._bindings.append((m, key, fn, wrapped))
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._bindings:
            setattr(owner, attr, fn)


def summarise(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed notes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children do not overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _, notes) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        for key, value in (notes or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def merge(into: dict, summary: dict) -> None:
    for name, agg in summary.items():
        dst = into.setdefault(name, {})
        for key, value in agg.items():
            dst[key] = dst.get(key, 0) + value


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per top-level package from ``-X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name in ("witt12", "numpy") and name not in out and cumulative.strip().isdigit():
                out[name] = int(cumulative) / 1e6
    return out
