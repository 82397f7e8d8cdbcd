"""Command-line interface.

Subcommands: construct, verify, block, table, classify, derive, aut,
remark3.  Exit codes: 0 on success, 1 when a verification fails, 2 on
usage, parse or write errors.  Output is deterministic; the structured
format is JSON, the table format is plain text.  Output is a table unless
``--out`` is given, when it is structured; ``--format`` overrides either.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Any, Callable, Sequence

from . import checks, design, designfile, symmetry
from .plane import PLANE, ProjLine, ProjPoint
from .quadrics import canonical_table

# what a command produces: the structured payload (a dict, or the design
# document itself), the lines of the table format, and the exit code
Output = tuple[Any, list[str], int]


class UsageError(ValueError):
    pass


def _parse(parse: Callable[[str], Any], spec: str) -> Any:
    try:
        return parse(spec)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_u(spec: str | None) -> ProjPoint:
    if spec is None:
        return design.DEFAULT_U
    return _parse(PLANE.parse_point, spec)


def _parse_line_through_u(args: argparse.Namespace) -> tuple[ProjPoint, ProjLine]:
    u = _parse_u(args.u)
    g = _parse(PLANE.parse_line, args.line)
    if u.index not in g.points:
        raise UsageError(f"line #{g.index} does not pass through U (#{u.index})")
    return u, g


def _render(payload: Any, text_lines: list[str], fmt: str) -> str:
    if fmt == "table":
        return "\n".join(text_lines) + "\n"
    if isinstance(payload, designfile.DesignDocument):
        return designfile.render_structured(payload)
    return json.dumps(payload, indent=2) + "\n"


def cmd_construct(args: argparse.Namespace) -> Output:
    doc = designfile.document_from_model(design.construct(_parse_u(args.u)))
    return doc, designfile.render_table(doc).splitlines(), 0


def cmd_verify(args: argparse.Namespace) -> Output:
    try:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {args.file}: {e}") from None
    except UnicodeDecodeError as e:
        raise designfile.DesignFileError(f"{args.file} is not UTF-8 text: {e}") from None
    doc = designfile.parse_structured(text)
    designfile.check_document_frame(doc)
    report: dict[str, Any] = {"command": "verify"}
    u = PLANE.points[doc.u]
    w = tuple(p.index for p in PLANE.points if p.index != doc.u)
    try:
        result = checks.verify_t_design(checks.IncidenceStructure(w, doc.blocks), 5)
    except ValueError as e:  # also no blocks, or a block under five points
        report["violation"] = {"kind": "structure", "reason": str(e)}
        return report, [f"VIOLATION: {e}"], 1
    if isinstance(result, checks.DesignViolation):
        v = result
        report["violation"] = {f: getattr(v, f) for f in v._fields}
        text = f"VIOLATION: {v.kind} at {v.witness}: got {v.count}, expected {v.expected}"
        return report, [text], 1
    cascade = checks.lambda_cascade(result)
    witness_bad = []
    for b, rec in zip(doc.blocks, doc.classes):
        try:
            cls_ = designfile.class_from_record(rec)
            rederived = design.rederive_block(cls_, u)
        except ValueError as e:
            witness_bad.append((b, str(e)))
            continue
        if rederived != tuple(sorted(b)):
            witness_bad.append((b, f"witness re-derives {rederived}"))
    report["design"] = [result.t, result.v, result.k, result.lambda_]
    report["lambda_cascade"] = list(cascade)
    report["witnesses_ok"] = not witness_bad
    lines = [
        f"design: {result.t}-({result.v},{result.k},{result.lambda_})",
        "lambda cascade: " + " ".join(str(x) for x in cascade),
        f"block witnesses: {len(doc.blocks) - len(witness_bad)}/{len(doc.blocks)} ok",
    ]
    if witness_bad:
        b, reason = witness_bad[0]
        report["violation"] = {"kind": "witness", "block": list(b), "reason": reason}
        return report, lines + [f"VIOLATION: block {b}: {reason}"], 1
    # a sound design is accepted only as the exact bytes construct writes
    if text != designfile.render_structured(designfile.document_from_model(design.construct(u))):
        reason = "the file differs from the canonical rendering of its design"
        report["violation"] = {"kind": "non-canonical", "reason": reason}
        return report, lines + [f"VIOLATION: non-canonical: {reason}"], 1
    return report, lines + ["OK"], 0


def cmd_block(args: argparse.Namespace) -> Output:
    u = _parse_u(args.u)
    idxs = [_parse(PLANE.parse_point, s).index for s in args.points]
    if len(set(idxs)) != 5:
        raise UsageError("the five points must be distinct")
    if u.index in idxs:
        raise UsageError("the removed point U cannot lie in a block")
    if args.method == "lookup":
        block = design.block_through(design.construct(u), idxs)
        payload = {"command": "block", "method": "lookup", "block": list(block)}
        return payload, [f"block: {' '.join(str(x) for x in block)}"], 0
    sol = design.solve_block_through(idxs, u)
    payload = {
        "command": "block",
        "method": "solve",
        "block": list(sol.block),
        "case": sol.case,
        "determinant": sol.determinant,
        "solution_dimension": sol.dimension,
        "form": list(sol.form.coeffs),
    }
    text_lines = [
        f"block: {' '.join(str(x) for x in sol.block)}",
        f"case: {sol.case}",
        f"determinant: {sol.determinant}",
        f"solution space dimension: {sol.dimension}",
        f"witness form: {sol.form.coeff_str()}",
    ]
    return payload, text_lines, 0


def cmd_table(args: argparse.Namespace) -> Output:
    rows = canonical_table()
    payload = {
        "command": "table",
        "rows": [
            {"form": r.label, "coeffs": list(r.form.coeffs), "counts": list(r.counts)}
            for r in rows
        ],
    }
    width = max(len(r.label) for r in rows)
    text_lines = [f"{'form':<{width}}  #Q0  #Q1  #Q2"] + [
        f"{r.label:<{width}}" + "".join(f"  {c:3d}" for c in r.counts) for r in rows
    ]
    return payload, text_lines, 0


def cmd_classify(args: argparse.Namespace) -> Output:
    model = design.construct(_parse_u(args.u))
    records = [(b, designfile.class_record(c)) for b, c in zip(model.blocks, model.classes)]
    counts = Counter(rec.kind for _, rec in records)
    payload: dict[str, Any] = {
        "command": "classify",
        "census": {k: counts[k] for k in sorted(counts)},
        "total": len(records),
    }
    text_lines = [f"{k}: {counts[k]}" for k in sorted(counts)] + [f"total: {len(records)}"]
    if args.witnesses:
        payload["blocks"] = [
            {"block": list(b), **designfile.record_object(rec)} for b, rec in records
        ]
        text_lines += [
            f"  {' '.join(f'{x:2d}' for x in b)}  {rec.kind:<22} {designfile.witness_text(rec)}"
            for b, rec in records
        ]
    return payload, text_lines, 0


def cmd_derive(args: argparse.Namespace) -> Output:
    u, g = _parse_line_through_u(args)
    model = design.construct(u)
    fixed = tuple(x for x in g.points if x != u.index)
    derived = checks.derived_design(design.as_incidence_structure(model), fixed)
    result = checks.verify_t_design(derived, 2)
    same = derived == checks.affine_residue(PLANE, g)
    if isinstance(result, checks.DesignParams):
        params = [result.t, result.v, result.k, result.lambda_]
        verdict = f"derived design: {result.t}-({result.v},{result.k},{result.lambda_})"
    else:
        params = None
        verdict = f"VIOLATION: {result.kind} at {result.witness}"
    payload = {
        "command": "derive",
        "line": g.index,
        "fixed": list(fixed),
        "design": params,
        "equals_affine_residue": same,
    }
    text_lines = [
        f"line #{g.index}: points {' '.join(str(x) for x in g.points)}",
        f"fixed points: {' '.join(str(x) for x in fixed)}",
        verdict,
        f"equals affine residue: {'yes' if same else 'no'}",
    ]
    return payload, text_lines, 0 if params == [2, 9, 3, 1] and same else 1


def cmd_aut(args: argparse.Namespace) -> Output:
    u = _parse_u(args.u)
    model = design.construct(u)
    summary = symmetry.automorphism_group(model)
    stab = symmetry.stabilizer_of(u)
    induced = {symmetry.induced_permutation(model, c) for c in stab}
    payload = {
        "command": "aut",
        "order": summary.order,
        "stabilizer_collineations": len(stab),
        "stabilizer_induced": len(induced),
        "sharply_5_transitive": summary.sharply_5_transitive,
        "generators": [list(g) for g in summary.generators],
    }
    text_lines = [
        f"automorphism group order: {summary.order}",
        f"collineations fixing U: {len(stab)}",
        f"distinct induced design automorphisms: {len(induced)}",
        f"sharply 5-transitive: {'yes' if summary.sharply_5_transitive else 'no'}",
        "generators (images of the 12 design points):",
    ] + [f"  {list(g)}" for g in summary.generators]
    return payload, text_lines, 0


def cmd_remark3(args: argparse.Namespace) -> Output:
    u, g = _parse_line_through_u(args)
    report = symmetry.verify_extension_formula(design.construct(u), g)
    payload: dict[str, Any] = {
        "command": "remark3",
        "line": report.line_index,
        "affinities": report.alpha_count,
        "checks": report.checks,
        "failures": len(report.failures),
        "kappa_beta_divergences": report.divergences,
    }
    text_lines = [
        f"line #{report.line_index}: affinities {report.alpha_count}",
        f"involution-formula checks: {report.checks}, failures: {len(report.failures)}",
        f"kappa/beta divergences: {report.divergences}",
    ]
    if report.divergence_example is not None:
        alpha, x, xk, xb = report.divergence_example
        payload["divergence_example"] = {
            "alpha": list(alpha),
            "point": x,
            "kappa_image": xk,
            "beta_image": xb,
        }
        text_lines.append(
            f"example: alpha={list(alpha)} point #{x}: kappa sends it to #{xk}, beta to #{xb}"
        )
    return payload, text_lines, 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witt12",
        description="construct and verify the small Witt design S(5,6,12)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, u: bool = True) -> None:
        if u:
            p.add_argument("--u", help="removed point, '#k' or 'x0:x1:x2' (default #4)")
        p.add_argument("--format", choices=("table", "structured"))
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("construct", help="build the design and emit it")
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a structured design file")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "structured"))
    p.set_defaults(func=cmd_verify, out=None)

    p = sub.add_parser("block", help="the unique block through five points")
    p.add_argument("points", nargs=5, metavar="POINT")
    p.add_argument("--method", choices=("lookup", "solve"), default="lookup")
    add_common(p)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("table", help="level-set counts of the four canonical forms")
    add_common(p, u=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("classify", help="census of block classes")
    p.add_argument("--witnesses", action="store_true", help="list every block with witness")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("derive", help="derived design at a line through U")
    p.add_argument("--line", required=True, help="line spec, '#k' or dual 'c0:c1:c2'")
    add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("aut", help="automorphism group summary")
    add_common(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("remark3", help="involution identity for affinity extensions")
    p.add_argument("--line", required=True, help="line spec, '#k' or dual 'c0:c1:c2'")
    add_common(p)
    p.set_defaults(func=cmd_remark3)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        payload, text_lines, code = args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except designfile.DesignFileError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    text = _render(payload, text_lines, args.format or ("structured" if args.out else "table"))
    if args.out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as e:  # also BrokenPipeError
            # the interpreter flushes stdout again at exit; point it at the
            # null device so that flush cannot fail and print a traceback
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write to stdout: {e}", file=sys.stderr)
            return 2
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
