"""Command line tests, run in process through main().

Exit code contract: 0 success, 1 verification failure, 2 usage or
parse error.
"""

import hashlib
import json

import pytest

from witt12.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def design_file(tmp_path, capsys):
    path = tmp_path / "design.json"
    code = main(["construct", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def test_construct_writes_the_canonical_file(design_file):
    doc = json.loads(design_file.read_text())
    assert doc["format"] == "witt12-design-v1"
    assert doc["u"] == 4
    assert len(doc["blocks"]) == 132


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["construct", "--out", str(a)]) == 0
    assert main(["construct", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_construct_table_format(capsys):
    code, out, _ = run(capsys, "construct", "--format", "table")
    assert code == 0
    assert "census:" in out


def test_construct_rejects_bad_u(capsys):
    code, _, err = run(capsys, "construct", "--u", "9:9:9")
    assert code == 2
    assert "error" in err


def test_verify_accepts_the_canonical_file(capsys, design_file):
    code, out, _ = run(capsys, "verify", str(design_file))
    assert code == 0
    assert "5-(12,6,1)" in out
    assert "132 66 30 12 4 1" in out
    assert out.rstrip().endswith("OK")


def test_verify_structured_report(capsys, design_file):
    code, out, _ = run(capsys, "verify", str(design_file), "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["design"] == [5, 12, 6, 1]
    assert report["lambda_cascade"] == [132, 66, 30, 12, 4, 1]
    assert report["witnesses_ok"] is True


def test_verify_flags_a_tampered_block(capsys, tmp_path, design_file):
    doc = json.loads(design_file.read_text())
    # replace one block by a 6-set that is not a block
    doc["blocks"][20] = sorted(set(doc["blocks"][20][:5]) | {doc["blocks"][21][5]})
    assert len(doc["blocks"][20]) == 6
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "VIOLATION" in out
    code, out, _ = run(capsys, "verify", str(bad), "--format", "structured")
    assert code == 1
    report = json.loads(out)
    assert report["violation"]["kind"] == "coverage"
    assert len(report["violation"]["witness"]) == 5


def test_verify_flags_u_inside_a_block(capsys, tmp_path, design_file):
    doc = json.loads(design_file.read_text())
    doc["blocks"][0][0] = doc["u"]
    bad = tmp_path / "u-inside.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "VIOLATION" in out
    code, out, _ = run(capsys, "verify", str(bad), "--format", "structured")
    assert code == 1
    assert json.loads(out)["violation"]["kind"] == "structure"


def test_verify_structured_reports_a_bad_witness(capsys, tmp_path, design_file):
    doc = json.loads(design_file.read_text())
    # a valid design whose first two witnesses re-derive each other's block
    doc["classes"][0], doc["classes"][1] = doc["classes"][1], doc["classes"][0]
    bad = tmp_path / "bad-witness.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(bad), "--format", "structured")
    assert code == 1
    report = json.loads(out)
    assert report["witnesses_ok"] is False
    assert report["violation"]["kind"] == "witness"
    assert report["violation"]["block"] == doc["blocks"][0]
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert out.splitlines()[-1].startswith("VIOLATION: block")


def test_verify_rejects_truncation(capsys, tmp_path, design_file):
    bad = tmp_path / "truncated.json"
    bad.write_text(design_file.read_text()[:4000])
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "parse error" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2


def test_block_lookup(capsys):
    code, out, _ = run(capsys, "block", "#2", "#3", "#5", "#6", "#7")
    assert code == 0
    assert "2 3 5 6 7 10" in out


def test_block_solve_case_a(capsys):
    code, out, _ = run(
        capsys, "block", "--method", "solve", "#2", "#3", "#5", "#6", "#7"
    )
    assert code == 0
    assert "case: A" in out
    assert "determinant: 2" in out
    assert "2 3 5 6 7 10" in out


def test_block_solve_case_b(capsys):
    code, out, _ = run(
        capsys, "block", "--method", "solve", "#2", "#3", "#8", "#9", "#11"
    )
    assert code == 0
    assert "case: B" in out
    assert "determinant: 0" in out
    assert "2 3 8 9 11 12" in out


def test_block_structured_output(capsys):
    code, out, _ = run(
        capsys, "block", "--format", "structured", "#2", "#3", "#5", "#6", "#7"
    )
    assert code == 0
    assert json.loads(out)["block"] == [2, 3, 5, 6, 7, 10]


def test_block_coordinate_point_syntax(capsys):
    code, out, _ = run(capsys, "block", "0:1:1", "0:1:2", "1:0:1", "1:0:2", "1:1:0")
    assert code == 0
    assert "2 3 5 6 7 10" in out


def test_block_rejects_u_among_the_points(capsys):
    code, _, err = run(capsys, "block", "#2", "#3", "#5", "#6", "#4")
    assert code == 2
    assert "U" in err


def test_block_rejects_repeats(capsys):
    code, _, err = run(capsys, "block", "#2", "#2", "#5", "#6", "#7")
    assert code == 2


def test_block_rejects_bad_coordinates(capsys):
    code, _, err = run(capsys, "block", "#2", "#3", "#5", "#6", "0:0:0")
    assert code == 2


def test_block_with_alternate_u(capsys):
    code, out, _ = run(capsys, "block", "--u", "#0", "#2", "#3", "#5", "#6", "#7")
    assert code == 0
    block = [int(x) for x in out.split(":")[1].split()]
    assert len(block) == 6 and 0 not in block


def test_table_command(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    rows = [ln.split()[-3:] for ln in out.strip().splitlines()[1:]]
    assert rows == [
        ["4", "3", "6"],
        ["1", "6", "6"],
        ["7", "3", "3"],
        ["4", "9", "0"],
    ]


def test_table_structured(capsys):
    code, out, _ = run(capsys, "table", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert [r["counts"] for r in report["rows"]] == [
        [4, 3, 6],
        [1, 6, 6],
        [7, 3, 3],
        [4, 9, 0],
    ]


def test_classify_census(capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "conic_exterior: 54" in out
    assert "symmetric_difference: 36" in out
    assert "line_pair_minus_u: 42" in out


def test_classify_witness_listing(capsys):
    code, out, _ = run(capsys, "classify", "--witnesses")
    assert code == 0
    assert len(out.splitlines()) > 132


def test_derive_all_lines_through_u(capsys):
    for spec in ("#0", "#1", "#2", "#3"):
        code, out, _ = run(capsys, "derive", "--line", spec)
        assert code == 0
        assert "2-(9,3,1)" in out
        assert "equals affine residue: yes" in out


def test_derive_rejects_line_off_u(capsys):
    code, _, err = run(capsys, "derive", "--line", "1:0:0")
    assert code == 2
    assert "does not pass through U" in err


def test_derive_requires_line(capsys):
    assert run(capsys, "derive")[0] == 2


def test_aut_report(capsys):
    code, out, _ = run(capsys, "aut")
    assert code == 0
    assert "95040" in out
    assert "432" in out
    assert "sharply 5-transitive: yes" in out


def test_remark3_report(capsys):
    code, out, _ = run(capsys, "remark3", "--line", "#0")
    assert code == 0
    assert "1296" in out
    assert "failures: 0" in out


# sha256 of the structured stdout, pinned from the output of the
# whole-group restriction lookup that remark3 used before it completed
# each affinity from five images
REMARK3_DIGESTS = {
    ("#0", "#1"): "332d1a80dc6cce10ec0fccd93c4c5aead0f968790d94af4de0dba7b92bac7049",
    ("#0", "#4"): "cc5fc7b8fac99be87d50fe4275a371b148fbcb253cf13cd0659a7f48663c5d26",
    ("#0", "#7"): "314408c854b17caa30ce116b4b335fe3a9b47993cdf4fa1588daf51c612f0c7b",
    ("#0", "#10"): "d36f356af659e1a570b6b60fe6e5785b6a4d32a2bcffdc2da1ee238f3e3c0394",
    ("#4", "#0"): "c3dd941385793799f3b84059ba9cca211269fbec8d6c59f6890a31d89aef9550",
    ("#4", "#1"): "797c81021b7d6440546041d3ff09e732db3c50a4da1871401f1958c00112332d",
    ("#4", "#2"): "c0adef6326dcc609c033c0874a82ecaa852e83650918950583d5beba2e005139",
    ("#4", "#3"): "94377b1595098791feab3ceda64ee2787a7ae3866f8894f0ecc8cdecc790a959",
    ("#9", "#2"): "2dfe55394f2ce299a8b70022af1d5dce91d0d3fe43a5e783c9e0ed0416f53f99",
    ("#9", "#5"): "7aac015817f4feb96f3d688fd848944ca5bc5e591ea321d1ea7618e996fa771a",
    ("#9", "#9"): "656f59e81576f085fdd80b24102fbd28635d629431cc86c6736b4f0576681d52",
    ("#9", "#10"): "65e87a08373f4dd68c27ab95bc47d9cb0bed21124340334c99bc0d8702082257",
}

AUT_U7_DIGEST = "ef92d89a556b20b12d0fe4665f17740cee07237599b4dc2a0b00cd6ce99dce36"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("u, line", sorted(REMARK3_DIGESTS))
def test_remark3_structured_output_is_pinned(capsys, u, line):
    code, out, _ = run(capsys, "remark3", "--u", u, "--line", line, "--format", "structured")
    assert code == 0
    assert sha256(out) == REMARK3_DIGESTS[u, line]


def test_aut_structured_output_is_pinned(capsys):
    code, out, _ = run(capsys, "aut", "--u", "#7", "--format", "structured")
    assert code == 0
    assert sha256(out) == AUT_U7_DIGEST


def test_remark3_rejects_line_off_u(capsys):
    code, _, err = run(capsys, "remark3", "--line", "#4")
    assert code == 2


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_no_command_prints_usage(capsys):
    code, out, err = run(capsys)
    assert code == 2
