"""Command-line interface.

Subcommands: construct, verify, block, table, classify, derive, aut,
remark3.  Exit codes: 0 on success, 1 when a verification fails, 2 on
usage or parse errors.  Output is deterministic; the structured format
is JSON, the default table format is plain text.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Sequence

from . import checks, design, designfile, symmetry
from .plane import PLANE, ProjLine, ProjPoint
from .quadrics import canonical_table


class UsageError(ValueError):
    pass


def _parse_u(spec: str | None) -> ProjPoint:
    if spec is None:
        return PLANE.points[design.DEFAULT_U_INDEX]
    try:
        return PLANE.parse_point(spec)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_line(spec: str) -> ProjLine:
    try:
        return PLANE.parse_line(spec)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _resolve_format(args: argparse.Namespace) -> str:
    if getattr(args, "format", None):
        return args.format
    return "structured" if getattr(args, "out", None) else "table"


def cmd_construct(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    model = design.construct(u)
    doc = designfile.document_from_model(model)
    fmt = _resolve_format(args)
    text = designfile.render_structured(doc) if fmt == "structured" else designfile.render_table(doc)
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    try:
        doc = designfile.parse_structured(text)
        designfile.check_document_frame(doc)
    except designfile.DesignFileError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    fields, lines, violation = _check_document(doc)
    if _resolve_format(args) == "structured":
        payload = {"command": "verify", **fields}
        if violation is not None:
            payload["violation"] = violation
        _emit(_json_report(payload), args.out)
    else:
        print("\n".join(lines))
    return 0 if violation is None else 1


def _check_document(doc: designfile.DesignDocument) -> tuple[dict, list[str], dict | None]:
    """Verify a parsed design: report fields, table lines, and the violation or None."""
    u = PLANE.points[doc.u]
    w = tuple(p.index for p in PLANE.points if p.index != doc.u)
    try:
        structure = checks.IncidenceStructure(w, doc.blocks)
    except ValueError as e:
        return {}, [f"VIOLATION: {e}"], {"kind": "structure", "reason": str(e)}
    result = checks.verify_t_design(structure, 5)
    if isinstance(result, checks.DesignViolation):
        v = result
        text = f"VIOLATION: {v.kind} at {v.witness}: got {v.count}, expected {v.expected}"
        return {}, [text], asdict(v)
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
    fields = {
        "design": [result.t, result.v, result.k, result.lambda_],
        "lambda_cascade": list(cascade),
        "witnesses_ok": not witness_bad,
    }
    lines = [
        f"design: {result.t}-({result.v},{result.k},{result.lambda_})",
        "lambda cascade: " + " ".join(str(x) for x in cascade),
        f"block witnesses: {len(doc.blocks) - len(witness_bad)}/{len(doc.blocks)} ok",
    ]
    if witness_bad:
        b, reason = witness_bad[0]
        violation = {"kind": "witness", "block": list(b), "reason": reason}
        return fields, lines + [f"VIOLATION: block {b}: {reason}"], violation
    return fields, lines + ["OK"], None


def cmd_block(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    try:
        pts = [PLANE.parse_point(s) for s in args.points]
    except ValueError as e:
        raise UsageError(str(e)) from None
    idxs = [p.index for p in pts]
    if len(set(idxs)) != 5:
        raise UsageError("the five points must be distinct")
    if u.index in idxs:
        raise UsageError("the removed point U cannot lie in a block")
    if args.method == "lookup":
        model = design.construct(u)
        block = design.block_through(model, idxs)
        payload = {"command": "block", "method": "lookup", "block": list(block)}
        text_lines = [f"block: {' '.join(str(x) for x in block)}"]
    else:
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
    if _resolve_format(args) == "structured":
        _emit(_json_report(payload), getattr(args, "out", None))
    else:
        print("\n".join(text_lines))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    rows = canonical_table()
    if _resolve_format(args) == "structured":
        payload = {
            "command": "table",
            "rows": [
                {"form": r.label, "coeffs": list(r.form.coeffs), "counts": list(r.counts)}
                for r in rows
            ],
        }
        _emit(_json_report(payload), getattr(args, "out", None))
    else:
        width = max(len(r.label) for r in rows)
        print(f"{'form':<{width}}  #Q0  #Q1  #Q2")
        for r in rows:
            c0, c1, c2 = r.counts
            print(f"{r.label:<{width}}  {c0:3d}  {c1:3d}  {c2:3d}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    model = design.construct(u)
    counts: dict[str, int] = {}
    records = []
    for b, cls_ in zip(model.blocks, model.classes):
        rec = designfile.class_record(cls_)
        counts[rec.kind] = counts.get(rec.kind, 0) + 1
        records.append((b, rec))
    if _resolve_format(args) == "structured":
        payload = {
            "command": "classify",
            "census": {k: counts[k] for k in sorted(counts)},
            "total": len(model.blocks),
        }
        if args.witnesses:
            payload["blocks"] = [
                {
                    "block": list(b),
                    "kind": rec.kind,
                    **({"form": list(rec.form)} if rec.form is not None else {}),
                    **({"lines": list(rec.lines)} if rec.lines is not None else {}),
                }
                for b, rec in records
            ]
        _emit(_json_report(payload), getattr(args, "out", None))
    else:
        for kind in sorted(counts):
            print(f"{kind}: {counts[kind]}")
        print(f"total: {len(model.blocks)}")
        if args.witnesses:
            for b, rec in records:
                witness = (
                    f"form {','.join(str(c) for c in rec.form)}"
                    if rec.form is not None
                    else f"lines {rec.lines[0]} {rec.lines[1]}"
                )
                print(f"  {' '.join(f'{x:2d}' for x in b)}  {rec.kind:<22} {witness}")
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    g = _parse_line(args.line)
    if u.index not in g.points:
        raise UsageError(f"line #{g.index} does not pass through U (#{u.index})")
    model = design.construct(u)
    fixed = tuple(x for x in g.points if x != u.index)
    derived = checks.derived_design(design.as_incidence_structure(model), fixed)
    result = checks.verify_t_design(derived, 2)
    residue = checks.affine_residue(PLANE, g)
    same = derived == residue
    ok = isinstance(result, checks.DesignParams) and result == checks.DesignParams(2, 9, 3, 1) and same
    if _resolve_format(args) == "structured":
        payload = {
            "command": "derive",
            "line": g.index,
            "fixed": list(fixed),
            "design": (
                [result.t, result.v, result.k, result.lambda_]
                if isinstance(result, checks.DesignParams)
                else None
            ),
            "equals_affine_residue": same,
        }
        _emit(_json_report(payload), getattr(args, "out", None))
    else:
        print(f"line #{g.index}: points {' '.join(str(x) for x in g.points)}")
        print(f"fixed points: {' '.join(str(x) for x in fixed)}")
        if isinstance(result, checks.DesignParams):
            print(f"derived design: {result.t}-({result.v},{result.k},{result.lambda_})")
        else:
            print(f"VIOLATION: {result.kind} at {result.witness}")
        print(f"equals affine residue: {'yes' if same else 'no'}")
    return 0 if ok else 1


def cmd_aut(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    model = design.construct(u)
    autos = symmetry.all_automorphisms(model)
    summary = symmetry.automorphism_group(model, autos)
    stab = symmetry.stabilizer_of(PLANE, u)
    induced = {symmetry.induced_permutation(model, c) for c in stab}
    if _resolve_format(args) == "structured":
        payload = {
            "command": "aut",
            "order": summary.order,
            "stabilizer_collineations": len(stab),
            "stabilizer_induced": len(induced),
            "sharply_5_transitive": summary.sharply_5_transitive,
            "generators": [list(g) for g in summary.generators],
        }
        _emit(_json_report(payload), getattr(args, "out", None))
    else:
        print(f"automorphism group order: {summary.order}")
        print(f"collineations fixing U: {len(stab)}")
        print(f"distinct induced design automorphisms: {len(induced)}")
        print(f"sharply 5-transitive: {'yes' if summary.sharply_5_transitive else 'no'}")
        print("generators (images of the 12 design points):")
        for g in summary.generators:
            print(f"  {list(g)}")
    return 0


def cmd_remark3(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    g = _parse_line(args.line)
    if u.index not in g.points:
        raise UsageError(f"line #{g.index} does not pass through U (#{u.index})")
    model = design.construct(u)
    report = symmetry.verify_extension_formula(model, g)
    ok = not report.failures
    if _resolve_format(args) == "structured":
        payload = {
            "command": "remark3",
            "line": report.line_index,
            "affinities": report.alpha_count,
            "checks": report.checks,
            "failures": len(report.failures),
            "kappa_beta_divergences": report.divergences,
        }
        if report.divergence_example is not None:
            alpha, x, xk, xb = report.divergence_example
            payload["divergence_example"] = {
                "alpha": list(alpha),
                "point": x,
                "kappa_image": xk,
                "beta_image": xb,
            }
        _emit(_json_report(payload), getattr(args, "out", None))
    else:
        print(f"line #{report.line_index}: affinities {report.alpha_count}")
        print(f"involution-formula checks: {report.checks}, failures: {len(report.failures)}")
        print(f"kappa/beta divergences: {report.divergences}")
        if report.divergence_example is not None:
            alpha, x, xk, xb = report.divergence_example
            print(
                f"example: alpha={list(alpha)} point #{x}: "
                f"kappa sends it to #{xk}, beta to #{xb}"
            )
    return 0 if ok else 1


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
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
