#!/usr/bin/env python3
"""End-to-end verification report.

Builds the design from scratch, then walks every headline fact the
package asserts: the canonical quadric table, the design parameters,
the block census, solver agreement, the proof lemmas, the automorphism
group, the three-point derivations, and the affinity extension formula.
Prints one section per topic; exits nonzero if anything fails.

Usage: python3 scripts/run_all_checks.py [--u POINT]
"""

import argparse
import itertools
import sys
import time
from collections import Counter

from witt12.checks import (
    DesignParams,
    affine_residue,
    derived_design,
    lambda_cascade,
    verify_t_design,
)
from witt12.design import (
    as_incidence_structure,
    block_through,
    construct,
    solve_block_through,
)
from witt12.plane import PLANE, collinear_triple_in
from witt12.quadrics import (
    QuadricType,
    all_nonzero_forms,
    canonical_table,
    classify,
    conic_geometry,
    level_set,
)
from witt12.symmetry import (
    automorphism_group,
    group_closure,
    induced_permutation,
    stabilizer_of,
    verify_extension_formula,
)


def section(title):
    print(f"\n== {title} ==")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--u", default="#4", help="removed point (default #4)")
    args = parser.parse_args(argv)
    try:
        u = PLANE.parse_point(args.u)
    except ValueError as e:
        parser.error(f"--u: {e}")

    t0 = time.time()
    failures = 0

    def check(ok, label):
        nonlocal failures
        mark = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"  [{mark}] {label}")

    section("canonical quadric table")
    for row in canonical_table():
        c0, c1, c2 = row.counts
        print(f"  {row.label:<20} |Q0|={c0} |Q1|={c1} |Q2|={c2}")
    check(
        [r.counts for r in canonical_table()]
        == [(4, 3, 6), (1, 6, 6), (7, 3, 3), (4, 9, 0)],
        "table matches the four canonical shapes",
    )

    section(f"design construction, U = #{u.index} ({':'.join(map(str, u.rep))})")
    model = construct(u)
    print(f"  blocks: {len(model.blocks)}")
    result = verify_t_design(as_incidence_structure(model), 5)
    check(result == DesignParams(5, 12, 6, 1), f"verify_t_design -> {result}")
    check(
        lambda_cascade(DesignParams(5, 12, 6, 1)) == (132, 66, 30, 12, 4, 1),
        "lambda cascade 132 66 30 12 4 1",
    )

    section("block census")
    census = Counter(c["kind"] for c in model.classes)
    for kind in sorted(census):
        print(f"  {kind}: {census[kind]}")
    check(
        census
        == {"conic_exterior": 54, "symmetric_difference": 36, "line_pair_minus_u": 42},
        "54 + 36 + 42 = 132",
    )

    section("solver agreement on all 792 five-subsets")
    cases = Counter()
    agree = True
    for five in itertools.combinations(model.w, 5):
        sol = solve_block_through(five, model.u)
        agree &= sol.block == block_through(model, five)
        if sol.case == "A":
            agree &= sol.determinant != 0 and sol.dimension == 1
        else:
            agree &= sol.determinant == 0
        cases[sol.case] += 1
    print(f"  case A: {cases['A']}, case B: {cases['B']}")
    check(agree and cases["A"] + cases["B"] == 792, "solve agrees with lookup")

    section("proof lemmas")
    arcs = sum(
        1 for c in itertools.combinations(PLANE.points, 5) if collinear_triple_in(c)
    )
    check(arcs == 1287, "every 5-subset of the plane has a collinear triple")
    seen, bad_ext, bad_int = set(), 0, 0
    for q in all_nonzero_forms():
        if classify(q) is not QuadricType.CONIC:
            continue
        key = frozenset(p.index for p in level_set(q, 0))
        if key in seen:
            continue
        seen.add(key)
        geo = conic_geometry(q)
        ext = {p.index for p in geo.external}
        bad_ext += sum(1 for ln in PLANE.lines if len(set(ln.points) & ext) > 3)
        tangent_pts = set().union(*(t.points for t in geo.tangents))
        bad_int += sum(1 for p in geo.internal if p.index in tangent_pts)
    check(
        len(seen) == 234 and bad_ext == 0,
        "no line carries 4 external points (234 conics)",
    )
    check(bad_int == 0, "internal points avoid all tangents")

    section("automorphism group")
    stab = stabilizer_of(model.u)
    check(len(stab) == 432, f"{len(stab)} collineations fix U")
    blocks = set(model.local_blocks)
    check(
        all(
            {tuple(sorted(p[x] for x in b)) for b in blocks} == blocks
            for p in (induced_permutation(model, c) for c in stab)
        ),
        "every stabilizer collineation induces a design automorphism",
    )
    summary = automorphism_group(model)
    print(f"  order: {summary.order}, generators: {len(summary.generators)}")
    check(summary.order == 95040, "group order 95040")
    check(len(group_closure(summary.generators)) == 95040, "the generators close to 95040 automorphisms")
    check(summary.sharply_5_transitive, "sharply 5-transitive")

    section("derivations at the three points of a line through U")
    witt = as_incidence_structure(model)
    for g in PLANE.lines:
        if model.u.index not in g.points:
            continue
        cut = tuple(x for x in g.points if x != model.u.index)
        d = derived_design(witt, cut)
        r = affine_residue(PLANE, g)
        ok = (
            verify_t_design(d, 2) == DesignParams(2, 9, 3, 1)
            and d.points == r.points
            and d.blocks == r.blocks
        )
        check(ok, f"line #{g.index}: 2-(9,3,1), equals the affine residue")

    section("affinity extension formula")
    for g in PLANE.lines:
        if model.u.index not in g.points:
            continue
        rep = verify_extension_formula(model, g)
        check(
            rep.alpha_count == 432 and rep.checks == 1296 and not rep.failures,
            f"line #{g.index}: 432 affinities, 1296 checks, 0 failures,"
            f" {rep.divergences} kappa/beta divergences",
        )

    section("summary")
    print(f"  {failures} failures, {time.time() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
