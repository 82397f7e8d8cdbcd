"""Acceptance gate: one test per shipping criterion, all exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  Every check here re-counts from scratch; nothing trusts
a cached summary.
"""

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import witt12

from witt12.checks import (
    DesignParams,
    affine_residue,
    derived_design,
    lambda_cascade,
    verify_t_design,
)
from witt12.design import (
    ConicExterior,
    LinePairMinusU,
    SymmetricDifference,
    as_incidence_structure,
    block_through,
    construct,
    rederive_block,
    solve_block_through,
)
from witt12.designfile import document_from_model, parse_structured, render_structured
from witt12.plane import PLANE, collinear_triple_in
from witt12.quadrics import (
    QuadricType,
    all_nonzero_forms,
    canonical_table,
    classify,
    conic_geometry,
    level_set,
)
from witt12.symmetry import induced_permutation


def test_01_canonical_table_reproduction():
    rows = canonical_table()
    assert [r.counts for r in rows] == [(4, 3, 6), (1, 6, 6), (7, 3, 3), (4, 9, 0)]
    print("\nPASS 1: canonical table rows (4,3,6) (1,6,6) (7,3,3) (4,9,0)")


def test_02_design_verification(model):
    assert len(model.blocks) == 132
    assert all(len(b) == 6 and set(b) <= set(model.w) for b in model.blocks)
    cover = Counter(
        sub for b in model.blocks for sub in itertools.combinations(b, 5)
    )
    assert len(cover) == 792 and set(cover.values()) == {1}
    assert verify_t_design(as_incidence_structure(model), 5) == DesignParams(
        5, 12, 6, 1
    )
    print("\nPASS 2: 132 six-point blocks cover all 792 five-subsets once: 5-(12,6,1)")


def test_03_lambda_cascade(model):
    analytic = lambda_cascade(DesignParams(5, 12, 6, 1))
    counted = []
    for j in range(6):
        counts = Counter(
            sub for b in model.blocks for sub in itertools.combinations(b, j)
        )
        assert set(counts.values()) == {counts.most_common(1)[0][1]}
        counted.append(counts.most_common(1)[0][1])
    assert tuple(counted) == analytic == (132, 66, 30, 12, 4, 1)
    print("\nPASS 3: lambda cascade by direct counting: 132 66 30 12 4 1")


def test_04_block_census(model):
    census = Counter(type(c) for c in model.classes)
    assert census[ConicExterior] == 54
    assert census[SymmetricDifference] == 36
    assert census[LinePairMinusU] == 42
    for b, cls_ in zip(model.blocks, model.classes):
        assert rederive_block(cls_, model.u) == b
    print("\nPASS 4: census 54 conic + 36 symmetric difference + 42 line pair = 132,"
          " every witness re-derives its block")


def test_05_solver_agreement(model):
    cases = Counter()
    for five in itertools.combinations(model.w, 5):
        sol = solve_block_through(five, model.u)
        assert sol.block == block_through(model, five)
        if sol.case == "A":
            assert sol.determinant != 0 and sol.dimension == 1
        else:
            assert sol.case == "B" and sol.determinant == 0
        cases[sol.case] += 1
    assert cases["A"] + cases["B"] == 792
    print(f"\nPASS 5: solver matches lookup on all 792 five-subsets"
          f" (case A {cases['A']}, case B {cases['B']})")


def test_06_proof_lemmas():
    for combo in itertools.combinations(PLANE.points, 5):
        collinear_triple_in(combo)  # raises when no triple exists
    seen = set()
    geos = []
    for q in all_nonzero_forms():
        if classify(q) is QuadricType.CONIC:
            key = frozenset(p.index for p in level_set(q, 0))
            if key not in seen:
                seen.add(key)
                geos.append(conic_geometry(q))
    assert len(geos) == 234
    for geo in geos:
        ext = {p.index for p in geo.external}
        for ln in PLANE.lines:
            assert len(set(ln.points) & ext) <= 3
        tangent_pts = set().union(*(t.points for t in geo.tangents))
        assert all(p.index not in tangent_pts for p in geo.internal)
    print("\nPASS 6: no 5-arc (1287 subsets), no 4 external points on a line"
          " (234 conics x 13 lines), internal points avoid tangents")


def test_07_automorphism_group(model, autos, summary, u_stabilizer):
    assert len(u_stabilizer) == 432
    blocks = set(model.local_blocks)
    for c in u_stabilizer:
        p = induced_permutation(model, c)
        assert {tuple(sorted(p[x] for x in b)) for b in blocks} == blocks
    assert summary.order == 95040
    prefixes = np.asarray(autos[:, :5], dtype=np.int64) @ (
        12 ** np.arange(5, dtype=np.int64)
    )
    assert len(np.unique(prefixes)) == 95040
    assert summary.sharply_5_transitive
    print("\nPASS 7: 432 stabilizer collineations act as automorphisms;"
          " full group has order 95040 and is sharply 5-transitive")


def test_08_triple_derivations(model, lines_through_u):
    witt = as_incidence_structure(model)
    assert len(lines_through_u) == 4
    for g in lines_through_u:
        cut = tuple(x for x in g.points if x != model.u.index)
        d = derived_design(witt, cut)
        assert verify_t_design(d, 2) == DesignParams(2, 9, 3, 1)
        r = affine_residue(PLANE, g)
        assert d.points == r.points and d.blocks == r.blocks
    print("\nPASS 8: all 4 derivations at a line through U verify as 2-(9,3,1)"
          " and equal the affine residue")


def test_09_extension_formula(model, lines_through_u):
    from witt12.symmetry import verify_extension_formula

    total_div = 0
    for g in lines_through_u:
        report = verify_extension_formula(model, g)
        assert report.alpha_count == 432
        assert report.checks == 1296
        assert report.failures == ()
        total_div += report.divergences
        assert report.divergence_example is not None
    assert total_div >= 1
    print("\nPASS 9: extension formula holds for all 4 lines x 432 affinities"
          " x 3 points (1296 checks each, zero failures), divergence exhibited")


def test_10_determinism(model, tmp_path):
    text1 = render_structured(document_from_model(model))
    text2 = render_structured(document_from_model(construct()))
    assert text1 == text2
    assert render_structured(parse_structured(text1)) == text1
    p = tmp_path / "design.json"
    p.write_text(text1)
    assert render_structured(parse_structured(p.read_text())) == text1
    print("\nPASS 10: construct output is byte-identical across runs and"
          " parse/re-emit round-trips")


def test_11_report_script():
    # the standalone report walks the same facts from a fresh process
    src = os.path.dirname(os.path.dirname(witt12.__file__))
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_checks.py"
    p = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=600,
    )
    assert p.returncode == 0, p.stdout + p.stderr
    assert "\n  0 failures," in p.stdout
    print("\nPASS 11: scripts/run_all_checks.py exits 0 with 0 failures")


def test_11_report_script_rejects_a_bad_u():
    # a bad spec is a usage error (exit 2), not a failed check (exit 1)
    src = os.path.dirname(os.path.dirname(witt12.__file__))
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_checks.py"
    p = subprocess.run(
        [sys.executable, str(script), "--u", "#13"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert p.returncode == 2, p.stdout + p.stderr
    assert "usage:" in p.stderr and "--u: point index out of range" in p.stderr
    assert "Traceback" not in p.stderr and p.stdout == ""
