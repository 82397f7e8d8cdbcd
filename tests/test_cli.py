"""Command line tests, run in process through main().

Exit code contract: 0 success, 1 verification failure, 2 usage or
parse error.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import witt12
from witt12.cli import main
from witt12.design import construct
from witt12.designfile import document_from_model, render_structured
from witt12.plane import PLANE


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


@pytest.mark.parametrize("method", ["lookup", "solve"])
@pytest.mark.parametrize(
    "points, message",
    [
        (["#2", "#2", "#5", "#6", "#7"], "the five points must be distinct"),
        (["#2", "#3", "#5", "#6", "1:0:0"], "the removed point U cannot lie in a block"),
    ],
    ids=["repeat", "u"],
)
def test_block_states_the_five_point_rule_by_either_method(capsys, method, points, message):
    code, out, err = run(capsys, "block", "--method", method, *points)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_block_rejects_bad_coordinates(capsys):
    code, _, err = run(capsys, "block", "#2", "#3", "#5", "#6", "0:0:0")
    assert code == 2


@pytest.mark.parametrize("spec", ["#1_0", "#\u0662", "+1:2:0"])
def test_block_rejects_integer_syntax_beyond_ascii_digits(capsys, spec):
    # int() reads '#1_0' as point 10 and '#\u0662' (Arabic-Indic two) as point 2
    code, out, err = run(capsys, "block", spec, "#2", "#3", "#5", "#6")
    assert code == 2 and out == ""
    assert err.startswith("error: bad point spec") and "Traceback" not in err


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


# sha256 of the structured stdout at every (U, line through U) pair;
# the first 12 were pinned from the whole-group restriction lookup that
# remark3 used before it completed each affinity from five images, the
# rest from the commit before the value-vector and in-place forcing rewrite
REMARK3_DIGESTS = {
    ("#0", "#1"): "332d1a80dc6cce10ec0fccd93c4c5aead0f968790d94af4de0dba7b92bac7049",
    ("#0", "#4"): "cc5fc7b8fac99be87d50fe4275a371b148fbcb253cf13cd0659a7f48663c5d26",
    ("#0", "#7"): "314408c854b17caa30ce116b4b335fe3a9b47993cdf4fa1588daf51c612f0c7b",
    ("#0", "#10"): "d36f356af659e1a570b6b60fe6e5785b6a4d32a2bcffdc2da1ee238f3e3c0394",
    ("#1", "#0"): "44e10561041afac1c03b2e6db93a655483391f068c3be495e20bfe00cc665b7d",
    ("#1", "#4"): "643cc759f4d7c8565fe3d051d66f565245d26eb570e846f4b2ce147645877447",
    ("#1", "#5"): "510a90a7704fc7c633212dcefe8300748282ef53bd212fa60cd73c2893d012a7",
    ("#1", "#6"): "963d317926e3d892ffb9aa5ea85f2602cd54ad203edd03261c724866af2c1683",
    ("#2", "#3"): "631795a67ace15d7ec66cdbbb99a5e6fa3e028c6667a0b0549602c27fa859ba1",
    ("#2", "#4"): "928a2a15d06d0cb8d1ca9ee9e7a311a985e3bb03f259328dabc2b88efaa73464",
    ("#2", "#9"): "c9a27f85aa28eb6084f77663a072768e03735c333e9448ebcfa7e2a3a3824923",
    ("#2", "#11"): "35af795e6e17986adc3fa74159315376b1dfeca7e2a48f1561eae51b17a86e48",
    ("#3", "#2"): "fe58b77c8804f95f54d14ab30a54684c1db956e5cc27c19dd17f85e6d6e24381",
    ("#3", "#4"): "6250a4e38c616f902cff64c8db51029c0c0b86a170d0ddc3b44591fed54eb7da",
    ("#3", "#8"): "6c2db042374deb3c82fc51f35014b518d1fbb2301c0c3516808cbd7d2a732487",
    ("#3", "#12"): "229262834822a1bc13c320d8be484ed76612365897e7560bbd023c909052d9a8",
    ("#4", "#0"): "c3dd941385793799f3b84059ba9cca211269fbec8d6c59f6890a31d89aef9550",
    ("#4", "#1"): "797c81021b7d6440546041d3ff09e732db3c50a4da1871401f1958c00112332d",
    ("#4", "#2"): "c0adef6326dcc609c033c0874a82ecaa852e83650918950583d5beba2e005139",
    ("#4", "#3"): "94377b1595098791feab3ceda64ee2787a7ae3866f8894f0ecc8cdecc790a959",
    ("#5", "#1"): "a4092dcca4a5fe117c86b45175f3da60860b47e2db32f2a3c86516653fef48e1",
    ("#5", "#6"): "580a87ea89ed8fd904a151ec2531d08b07cffe1cf07e3c56fe13de6f5910bf17",
    ("#5", "#9"): "9f8b6080cb1ca47b4f72db86adacc0b0e9841a1ec2ff36fd46e9cb9c9fe1b2c8",
    ("#5", "#12"): "ef1d088e73fcd1cf92dd01a2550e0a5306a0e61a8d36a77ffa2b143c24f2fdd1",
    ("#6", "#1"): "fb02fd8909986204116e4116a0e07594568fa00f8b84215134c34bc8ec82a275",
    ("#6", "#5"): "177b4ce67ee1eb71c4a174dc0e594a811b357e23905c9a0579c33961898c5a7b",
    ("#6", "#8"): "5ae0a273f70c1c208bab59d783aa3deeea91d68829abe41885a491fe5a9a91a2",
    ("#6", "#11"): "9cce7730b2190b00d85de653095bfbd761f3e6027146d830d63fb7cffd578fa7",
    ("#7", "#0"): "149ce71d990e59a818c9ff3652ce96ebde99869bdbacf33167ad0650e5807300",
    ("#7", "#10"): "501ba987fe13fb961438fc01d5c4ae8516a8ca6d4518d87146cde2144477f788",
    ("#7", "#11"): "5b779e95295246c84eac1990aff43f748d3cae0f5d520b0e97281f462ff67d41",
    ("#7", "#12"): "2cfba6c10abcaf8114034b362d4c8905e15989ee08d8c770e0c861ffd228b4ae",
    ("#8", "#3"): "22d207d83ba85ed79c7a74b5ec05ee0bc3b16efc143800c4b7832222770337f1",
    ("#8", "#6"): "f3fb52c5dd1116adad90b80c2c84a1931213f546880d208572375c0c4636579c",
    ("#8", "#8"): "27f1cbaa67ab6e058e7f9e884d82496487d0692a35c685677ea4aed7890e3af5",
    ("#8", "#10"): "7cd256e47878939c6f7832ec06ed256f00620a385aafe564f8ca95c54dbe63f8",
    ("#9", "#2"): "2dfe55394f2ce299a8b70022af1d5dce91d0d3fe43a5e783c9e0ed0416f53f99",
    ("#9", "#5"): "7aac015817f4feb96f3d688fd848944ca5bc5e591ea321d1ea7618e996fa771a",
    ("#9", "#9"): "656f59e81576f085fdd80b24102fbd28635d629431cc86c6736b4f0576681d52",
    ("#9", "#10"): "65e87a08373f4dd68c27ab95bc47d9cb0bed21124340334c99bc0d8702082257",
    ("#10", "#0"): "149ce71d990e59a818c9ff3652ce96ebde99869bdbacf33167ad0650e5807300",
    ("#10", "#7"): "386fe538c5600ceb282534940fac80aab606f8ee9fe5f93ba2580a27647ae102",
    ("#10", "#8"): "27f1cbaa67ab6e058e7f9e884d82496487d0692a35c685677ea4aed7890e3af5",
    ("#10", "#9"): "656f59e81576f085fdd80b24102fbd28635d629431cc86c6736b4f0576681d52",
    ("#11", "#2"): "2dfe55394f2ce299a8b70022af1d5dce91d0d3fe43a5e783c9e0ed0416f53f99",
    ("#11", "#6"): "f3fb52c5dd1116adad90b80c2c84a1931213f546880d208572375c0c4636579c",
    ("#11", "#7"): "ff76ba83ef27ec3683db90db9d59c29c0f0f1582efbfbd941331c43c7a7d76c8",
    ("#11", "#11"): "5b779e95295246c84eac1990aff43f748d3cae0f5d520b0e97281f462ff67d41",
    ("#12", "#3"): "22d207d83ba85ed79c7a74b5ec05ee0bc3b16efc143800c4b7832222770337f1",
    ("#12", "#5"): "7aac015817f4feb96f3d688fd848944ca5bc5e591ea321d1ea7618e996fa771a",
    ("#12", "#7"): "123851f76f3487ebf49ac2eb2e2c0e306554f7a5f6da0c252d0963152dc3e2a5",
    ("#12", "#12"): "2cfba6c10abcaf8114034b362d4c8905e15989ee08d8c770e0c861ffd228b4ae",
}

# sha256 of aut --format structured, indexed by U, pinned from the
# output of the whole-group enumeration
AUT_DIGESTS = [
    "03db7939e5a60d0521b82e515fddd7cb3f88996b0eb87b3e56183bb5b0efd90b",
    "5b4bce0a74e80af06d09f224c6f16a41f91481e9f458bfa915129233fc743bfb",
    "0e6b33a9aeee570d59ab655eaeffce9536da8e37145e882df6c3f1f8c4b7420b",
    "2d6b0d2af7382b7259590af106b6cb2f0b7a6b54c12bef73a6f89c94bda12cfa",
    "b815aebe85c279841e26a9ee532b0bc544a0caf57de3f826dfb41fa2d148bfe0",
    "c0c24815664c6e4010b9f0a2dfef2a16bed6c284ad1f6597a912d327f71d3fb4",
    "dea890c956065d2270bca999cf2bbcafc44480bf8e72c9c4eb8185608e2960f5",
    "ef92d89a556b20b12d0fe4665f17740cee07237599b4dc2a0b00cd6ce99dce36",
    "fe06d47ee4a39b1520c3d6cdbc611b35f3b5fc742c7e2b47b5845f28706b2fa7",
    "c045f9f21a6f463eab6777aad7cd83932f9249dfe875eec599ebaa2b7c0190ac",
    "ee20ae0681c3abc4eaa6fec044c2907945237d1438f374c9c71abbc70e341d7f",
    "054aa7c189e63c9bf862c992db1e2ea356aee5c9bb7e88632b6798515211818f",
    "132d860dc2886b26786648ccc2afda79e9f2b9a49b2c9489e965542550b78773",
]
AUT_U7_DIGEST = AUT_DIGESTS[7]

# (exit code, sha256 of stdout) of each command line, pinned from the
# output of the CLI before every subcommand went through one emitter;
# {designN} is the canonical file at U = #N and {tamperedN} a copy with
# one block broken, which verify rejects with a coverage violation
OUTPUT_DIGESTS = {
    "construct --u #4 --format table": (0, "b11419b7a057d3278e1a50b066466d58187a017c096a598f3601ed00bdafb469"),
    "verify {design4} --format table": (0, "368f1d64d4472b78e49e0f1505fae147dc467d5bfbf2ab9c8b06ca88983ebafb"),
    "verify {tampered4} --format table": (1, "56b06b08208fd260b7594824722f5eade357b258cc489fa9cbfd7e8601c5aafb"),
    "block --method lookup --u #4 --format table #2 #3 #5 #6 #7": (0, "0c62906878d6ff3e38113dd86002b84f1e60cc39f22cbb07dbb1fe09e21ae8f6"),
    "block --method lookup --u #4 --format table #2 #3 #8 #9 #11": (0, "b826ef66c2244196d144c50548f031cfdf36b4232ed7a80a039c70142d2b9bb4"),
    "block --method solve --u #4 --format table #2 #3 #5 #6 #7": (0, "ab9a0e4b5f8d44a7e6182b16f85b35819d03af05e13b0f1c4d7e7aacca905c29"),
    "block --method solve --u #4 --format table #2 #3 #8 #9 #11": (0, "d398515f84c36df16a487206e3e8fb2fff003644a203297b1cdce3d6813b1a36"),
    "classify --u #4 --format table": (0, "283f49aefe09f319b76be45c213e89933931ed0a38e2811b156747368030e376"),
    "classify --witnesses --u #4 --format table": (0, "8b61e1189ca8b0b220836ad3935dc1fc2275b60c45d959081fb85819908b1ef1"),
    "derive --u #4 --line #0 --format table": (0, "29f65df0d0f4d38c407ca0415b0d1146ca509db4eb07160055d8cdbeb80388aa"),
    "derive --u #4 --line #1 --format table": (0, "5dacb0db5e5161442f66a578059d382376ed99e71f878204a1cc67b227376906"),
    "derive --u #4 --line #2 --format table": (0, "0c74bfb24131c94a65bfa09c3425566311a0f15e1585c909126bb7e39e90431e"),
    "derive --u #4 --line #3 --format table": (0, "720f62638971b1d6bd06da791b6932d07274fc54c2df402c7d0ea320969e3db7"),
    "construct --u #4 --format structured": (0, "8474b3404652582b2e38c53f4a2870a8e02d86cdf849e0e9486108227f5a8ddc"),
    "verify {design4} --format structured": (0, "8d433f57d0fb8ddbcbdd919a9aab801bee463a8551cf3b592d26aa5b77e23da3"),
    "verify {tampered4} --format structured": (1, "c572f12c164176995660c79e4e7485c629bd5d896e248aa8d8b18fed66ab9991"),
    "block --method lookup --u #4 --format structured #2 #3 #5 #6 #7": (0, "94218df2675638c7c3c36d07642a774374220483401f2356d94fd405124b26a3"),
    "block --method lookup --u #4 --format structured #2 #3 #8 #9 #11": (0, "e5e88e23bf2469822e9dba967f3ba916d21631484e785fd630d9a931c37890fb"),
    "block --method solve --u #4 --format structured #2 #3 #5 #6 #7": (0, "ceffc94a0f6b2acd520646950a838f0dba9fc864d7440d6c89a31c2b57d77776"),
    "block --method solve --u #4 --format structured #2 #3 #8 #9 #11": (0, "deadeaa9de21f1dc23f9ad9646d943ba0e5437ed0137f1bd277b57b36cf971c1"),
    "classify --u #4 --format structured": (0, "2cd65b99fff7f68b3e9d85521e79e44ece7346c76670baf3b1e343b1892e74f3"),
    "classify --witnesses --u #4 --format structured": (0, "d30c1c4f293edeac9e00f986b40cd6461db675c904f7c79dd666a72dde086773"),
    "derive --u #4 --line #0 --format structured": (0, "ca242719a08d943c3b901009abc5b8f125e2139b3e32b570b42b1146bba663fb"),
    "derive --u #4 --line #1 --format structured": (0, "01aad3eb526f6076ef9b4f674e92c92f137caee964dd5db66e8d85ee2d6047e6"),
    "derive --u #4 --line #2 --format structured": (0, "0ae9652debe79e3f17e5da46ce41c61dc7e6415557ab3146adadef3a0983fec1"),
    "derive --u #4 --line #3 --format structured": (0, "bae99d62fb44a35c87b0d3c76a9c927e79bfe8096593aec8bd7316ee17417d1c"),
    "construct --u #9 --format table": (0, "0580530ccea344bd0e742dfcc818b947e98990826c284b72f4a004340f32baee"),
    "verify {design9} --format table": (0, "368f1d64d4472b78e49e0f1505fae147dc467d5bfbf2ab9c8b06ca88983ebafb"),
    "verify {tampered9} --format table": (1, "36e5c82d0011e87824f6514dbab1da56957242d2e1bd50f21eafdee6caf68799"),
    "block --method lookup --u #9 --format table #0 #1 #2 #4 #5": (0, "cb553a438e816d30d60cf0ef5534583a76be7a58e8275902247331d550118917"),
    "block --method lookup --u #9 --format table #0 #1 #2 #3 #4": (0, "404fa13bcf02d1115b5440664c6c4e83c2b78fbeb9ec876c45032c99435e03f4"),
    "block --method solve --u #9 --format table #0 #1 #2 #4 #5": (0, "c111486c10f5825e8f31638de96c1e7d959d1da2c9c6973886509b76f2083d71"),
    "block --method solve --u #9 --format table #0 #1 #2 #3 #4": (0, "222e2a6c5b0f1b992af96f7a631e1a7696ceca3f84e820b96953e3822ec9ce72"),
    "classify --u #9 --format table": (0, "283f49aefe09f319b76be45c213e89933931ed0a38e2811b156747368030e376"),
    "classify --witnesses --u #9 --format table": (0, "c3df125409753a27592a05270f5a8f2f276e47e4b4dfb96e94c6f09467aa6116"),
    "derive --u #9 --line #2 --format table": (0, "3a0c0e0b61823309e32f4e8ab17507447303f2eb2312189dadf176a1f64b9e41"),
    "derive --u #9 --line #5 --format table": (0, "7b6e024cce513a33216d89803a6b76d8b55bf70c1ae7d5e73c8a3cbb78f80c30"),
    "derive --u #9 --line #9 --format table": (0, "1f5d5ecb23398a245b68661c7f466cd4d6b07a2e6380e5f63ea11d299fef06ea"),
    "derive --u #9 --line #10 --format table": (0, "d7abb5d6e51afd18d836d08b6d7aba6269b7bf4e8a17e794e3988fb3edc6d622"),
    "construct --u #9 --format structured": (0, "a934c7e5eda8c0be253d199a06d8c8c9678fb5c758e8de6fc93896fe861a949b"),
    "verify {design9} --format structured": (0, "8d433f57d0fb8ddbcbdd919a9aab801bee463a8551cf3b592d26aa5b77e23da3"),
    "verify {tampered9} --format structured": (1, "313f19799a6d3a02eba97a425e621b41a27eda49669cb79e199cc51d39c3d0cd"),
    "block --method lookup --u #9 --format structured #0 #1 #2 #4 #5": (0, "600dc84bb5798b1f33eac6aced2b0c745a9a43e5b8e8fe83bb14a2dce7aaa43d"),
    "block --method lookup --u #9 --format structured #0 #1 #2 #3 #4": (0, "ba9332af31a2dd3f3520138f62f16d2d68190a7d76bba9322e1f4dc881d66449"),
    "block --method solve --u #9 --format structured #0 #1 #2 #4 #5": (0, "87737fdf13989f4b263b3ce14dcc1890d4ae2f70c852ffb7d1b4cc5dff8c4562"),
    "block --method solve --u #9 --format structured #0 #1 #2 #3 #4": (0, "c90e438c85e4ad1604d6c38bda338f76b1ae88efe50c9e3b39b9c9012f53318e"),
    "classify --u #9 --format structured": (0, "2cd65b99fff7f68b3e9d85521e79e44ece7346c76670baf3b1e343b1892e74f3"),
    "classify --witnesses --u #9 --format structured": (0, "2cce5143a351747951f97195a0813047de96edad3187f82c5d7aec5ac770125d"),
    "derive --u #9 --line #2 --format structured": (0, "7c5a50a86c75b46d49bbe6b4dfd72818b5e4ab551460b80eb9cf0ccc726aeeef"),
    "derive --u #9 --line #5 --format structured": (0, "c82f654929543855479b1a8cf3764ceca8e9f767e2e1b345788a4aa36afc0ba6"),
    "derive --u #9 --line #9 --format structured": (0, "4fb74da693bf8a5dd855e2f1df5a0d8030fc23859ae1f1a4438650559aa09bf5"),
    "derive --u #9 --line #10 --format structured": (0, "ae96f292d2ef543941490f91a05d046f7f92015b8db90bc8f88d7e8829f9220f"),
    "table --format table": (0, "5e46cc74ca4f651deadb353abcaba2875ec8420adbbc1640875c21af2ddf6601"),
    "table --format structured": (0, "494d53edaa1610418674def063c45cd50db24864eb2e086a0fb23560dae8a416"),
    "aut --u #7 --format table": (0, "625c1c468b0418a1e47879461d1fdbd56c84c4cffda5f44e1f85e138b8535532"),
    "remark3 --u #9 --line #2 --format table": (0, "fca59cf0b677ee26547d93fe977ec4a9b5544774c4b3f915196f56120ec20337"),
}
# sha256 of the file that construct --out writes, indexed by U
CONSTRUCT_FILE_DIGESTS = [
    "ad631eb82da9cec66720be8fb04419828916232bb1a8920a16fa05eecdf3b0df",
    "950a9ce27074048474a15ea9fe60ea097dff239702dbc6aa9dcebf8088a9764d",
    "6918e7ca123ab0a2a59c197af4e4e818bf04e2f5ff37ad22cf7f4d309d9110de",
    "425bc00493b2cceee607ca1324854a9198316555430ce8750ae893afa0a1192b",
    "8474b3404652582b2e38c53f4a2870a8e02d86cdf849e0e9486108227f5a8ddc",
    "c666a2f5b5b783fec97cedc7b947081a9083ac85275ce4614bfa8d535a9c1408",
    "015f832fa6a3570f99df7d019d44ccd7a63e32fb78e72c3b17f30e24d521b04a",
    "4c598286ea25931353dedd09c5b7fc6874e964fcb741d51812916aba0ba55e6a",
    "b01bf30c9735f5308b345054dda4b4fa1a024db4c42141d6e166240f7a20fd94",
    "a934c7e5eda8c0be253d199a06d8c8c9678fb5c758e8de6fc93896fe861a949b",
    "62fad7e883e92dacd2a8dc3edea95cb3d0d7640498831a810fb84e56dbe7d884",
    "cb53e140a090057dd30532affdcdeceecb6c5feb1812de99292051bbdc468d7e",
    "e726f5138b66c21f1c4e5c8d7e6e9631a92e553f1e94f85790c782715f53fbc2",
]


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


@pytest.mark.parametrize("u", [u for u in range(13) if u != 7])  # #7 is pinned above
def test_aut_structured_output_is_pinned_at_every_u(capsys, u):
    code, out, _ = run(capsys, "aut", "--u", f"#{u}", "--format", "structured")
    assert code == 0
    assert sha256(out) == AUT_DIGESTS[u]


@pytest.fixture(scope="module")
def design_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("designs")
    files = {}
    for u in (4, 9):
        text = render_structured(document_from_model(construct(PLANE.points[u])))
        doc = json.loads(text)
        doc["blocks"][20] = sorted(set(doc["blocks"][20][:5]) | {doc["blocks"][21][5]})
        for name, content in ((f"design{u}", text), (f"tampered{u}", json.dumps(doc))):
            path = tmp / f"{name}.json"
            path.write_text(content)
            files[name] = str(path)
    return files


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_output_is_pinned(capsys, design_files, command):
    code, out, _ = run(capsys, *command.format(**design_files).split())
    assert (code, sha256(out)) == OUTPUT_DIGESTS[command]


@pytest.mark.parametrize("u", range(13))
def test_construct_file_is_pinned(capsys, tmp_path, u):
    path = tmp_path / "design.json"
    code, out, _ = run(capsys, "construct", "--u", f"#{u}", "--out", str(path))
    assert (code, out) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_FILE_DIGESTS[u]


# one table command per subcommand that takes --out
TABLE_COMMANDS = [
    "construct --u #4 --format table",
    "block --method lookup --u #4 --format table #2 #3 #5 #6 #7",
    "table --format table",
    "classify --u #4 --format table",
    "derive --u #4 --line #0 --format table",
    "aut --u #7 --format table",
    "remark3 --u #9 --line #2 --format table",
]


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_format_goes_to_out(capsys, tmp_path, command):
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *command.split(), "--out", str(path))
    assert (code, out) == (OUTPUT_DIGESTS[command][0], "")
    assert sha256(path.read_text()) == OUTPUT_DIGESTS[command][1]


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_out_into_a_missing_directory(capsys, tmp_path, fmt):
    path = tmp_path / "absent" / "design.json"
    code, out, err = run(capsys, "construct", "--format", fmt, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")


def test_out_into_a_missing_directory_as_a_process(tmp_path):
    src = os.path.dirname(os.path.dirname(witt12.__file__))
    p = subprocess.run(
        [sys.executable, "-m", "witt12.cli", "table", "--out", str(tmp_path / "absent" / "t.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr.startswith("error:")
    assert "Traceback" not in p.stderr


def _unwritable_stdout(kind):
    """A write end that fails: /dev/full (ENOSPC) or a pipe with no reader (EPIPE)."""
    if kind == "closed-pipe":
        r, w = os.pipe()
        os.close(r)
        return w
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("kind,unbuffered", [("full", True), ("full", False), ("closed-pipe", False)])
@pytest.mark.parametrize("argv", [["table", "--format", "structured"], ["construct"], ["aut"]])
def test_failed_stdout_write_exits_2(argv, kind, unbuffered):
    # unbuffered, the write itself fails; buffered, only the flush does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(witt12.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    fd = _unwritable_stdout(kind)
    try:
        p = subprocess.run(
            [sys.executable, "-m", "witt12.cli", *argv],
            stdout=fd,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(fd)
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("error: cannot write to stdout")
    assert "Traceback" not in p.stderr and "Exception ignored" not in p.stderr


# every subcommand, including aut and remark3, with numpy unimportable
NO_NUMPY_COMMANDS = [
    ["construct", "--format", "structured"],
    ["verify", "{design}"],
    ["block", "--method", "solve", "#2", "#3", "#8", "#9", "#11"],
    ["table"],
    ["classify", "--witnesses"],
    ["derive", "--line", "#0"],
    ["aut"],
    ["remark3", "--line", "#0"],
]

NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from witt12.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


def test_commands_run_without_numpy(capsys, design_file):
    commands = [[a.format(design=design_file) for a in argv] for argv in NO_NUMPY_COMMANDS]
    src = os.path.dirname(os.path.dirname(witt12.__file__))
    p = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert p.returncode == 0, p.stderr
    expected = [list(run(capsys, *argv)[:2]) for argv in commands]
    assert json.loads(p.stdout) == expected


def _imported(*args):
    """Modules a fresh interpreter imports, read off -X importtime."""
    p = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(witt12.__file__))},
    )
    assert p.returncode == 0, p.stderr
    return {ln.rsplit("|", 1)[1].strip() for ln in p.stderr.splitlines() if ln.startswith("import time:")}


def test_commands_import_neither_dataclasses_nor_inspect():
    # together about 10 ms of every cold command, and witt12 needs neither
    startup = _imported("-c", "pass")
    for args in (["-c", "import witt12"], ["-m", "witt12.cli", "table"]):
        loaded = _imported(*args) - startup
        assert "witt12.checks" in loaded
        assert not loaded & {"dataclasses", "inspect"}, args


def test_construct_and_verify_under_optimize(tmp_path):
    # python -O strips assert statements; the runtime proofs must not depend on them
    src = os.path.dirname(os.path.dirname(witt12.__file__))
    path = str(tmp_path / "design.json")
    for args in (["construct", "--out", path], ["verify", path]):
        p = subprocess.run(
            [sys.executable, "-O", "-m", "witt12.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines()[-1] == "OK"


# values of the right JSON type that are still not point indices or
# coefficients; each must be a parse error, not a design violation
MALFORMED = {
    "u-bool": lambda o: o.__setitem__("u", True),
    "block-bool": lambda o: o["blocks"][0].__setitem__(0, True),
    "block-above-12": lambda o: o["blocks"][0].__setitem__(5, 99),
    "block-negative": lambda o: o["blocks"][0].__setitem__(0, -1),
    "form-bool": lambda o: next(c for c in o["classes"] if "form" in c)["form"].__setitem__(0, True),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_rejects_malformed_values_as_parse_errors(capsys, tmp_path, design_file, name):
    doc = json.loads(design_file.read_text())
    MALFORMED[name](doc)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(bad), "--format", "structured")
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


def test_verify_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "verify", str(bad), "--format", "structured")
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    assert "Traceback" not in err


# raw files that json.loads rejects with something other than a
# JSONDecodeError: nesting past the recursion limit, and an integer
# literal past the interpreter's 4300-digit conversion limit
UNLOADABLE = {
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "huge-integer": '{"u": ' + "1" * 5000 + "}",
}


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("name", sorted(UNLOADABLE))
def test_verify_rejects_unloadable_json_as_a_parse_error(capsys, tmp_path, name, fmt):
    bad = tmp_path / "unloadable.json"
    bad.write_text(UNLOADABLE[name])
    code, out, err = run(capsys, "verify", str(bad), "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("blocks", ["empty-block", "no-blocks"])
def test_verify_reports_too_few_points_as_a_structure_violation(capsys, tmp_path, design_file, blocks):
    doc = json.loads(design_file.read_text())
    if blocks == "empty-block":
        doc["blocks"][0] = []
    else:
        doc["blocks"], doc["classes"] = [], []
    bad = tmp_path / "small.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(bad), "--format", "structured")
    assert code == 1
    assert json.loads(out)["violation"]["kind"] == "structure"


def _shift_a_coefficient(doc):
    next(c for c in doc["classes"] if "form" in c)["form"][0] += 3


def _reverse_a_block(doc):
    doc["blocks"][0].reverse()


def _stray_form_on_a_line_pair(doc):
    next(c for c in doc["classes"] if c["kind"] == "line_pair_minus_u")["form"] = [1, 0, 0, 0, 0, 0]


# the same sound design with sound witnesses, written differently from
# what construct writes; each passes every check before the last
NON_CANONICAL = {
    "form-plus-3": _shift_a_coefficient,
    "reversed-block": _reverse_a_block,
    "stray-form": _stray_form_on_a_line_pair,
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_verify_rejects_a_non_canonical_file(capsys, tmp_path, design_file, name):
    doc = json.loads(design_file.read_text())
    NON_CANONICAL[name](doc)
    bad = tmp_path / "non-canonical.json"
    bad.write_text(json.dumps(doc, indent=2) + "\n")
    code, out, _ = run(capsys, "verify", str(bad), "--format", "structured")
    assert code == 1
    report = json.loads(out)
    assert report["witnesses_ok"] is True
    assert report["violation"]["kind"] == "non-canonical"
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert out.splitlines()[-1].startswith("VIOLATION: non-canonical")


def _first(doc, kind):
    return next(c for c in doc["classes"] if c["kind"] == kind)


def _repeat_a_line(doc):
    lines = _first(doc, "symmetric_difference")["lines"]
    lines[1] = lines[0]


# witness records that parse but name no witness, each with the reason
# verify gives; the design itself is sound
MALFORMED_WITNESSES = {
    "conic-without-form": (
        lambda o: _first(o, "conic_exterior").pop("form"),
        "conic record without a form",
    ),
    "line-pair-without-lines": (
        lambda o: _first(o, "line_pair_minus_u").pop("lines"),
        "line_pair_minus_u record without lines",
    ),
    "unknown-kind": (
        lambda o: o["classes"][0].__setitem__("kind", "ellipse"),
        "unknown class kind 'ellipse'",
    ),
    "five-coefficients": (
        lambda o: _first(o, "conic_exterior")["form"].pop(),
        "a form has six coefficients",
    ),
    "equal-lines": (_repeat_a_line, "witness lines must be distinct"),
    "zero-line": (
        lambda o: _first(o, "line_pair_minus_u")["lines"].__setitem__(0, "0:0:0"),
        "the zero vector spans no projective point",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WITNESSES))
def test_verify_rejects_a_malformed_witness_record(capsys, tmp_path, design_file, name):
    before, doc = json.loads(design_file.read_text()), json.loads(design_file.read_text())
    change, reason = MALFORMED_WITNESSES[name]
    change(doc)
    k = next(i for i, c in enumerate(doc["classes"]) if c != before["classes"][i])
    bad = tmp_path / "malformed-witness.json"
    bad.write_text(json.dumps(doc, indent=2) + "\n")
    code, out, err = run(capsys, "verify", str(bad), "--format", "structured")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["witnesses_ok"] is False
    assert report["violation"] == {"kind": "witness", "block": doc["blocks"][k], "reason": reason}
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == f"VIOLATION: block {tuple(doc['blocks'][k])}: {reason}"


def test_verify_rejects_crlf_line_ends(capsys, tmp_path, design_file):
    bad = tmp_path / "crlf.json"
    bad.write_bytes(design_file.read_bytes().replace(b"\n", b"\r\n"))
    code, out, _ = run(capsys, "verify", str(bad), "--format", "structured")
    assert code == 1
    assert json.loads(out)["violation"]["kind"] == "non-canonical"


CANONICAL = render_structured(document_from_model(construct())).encode()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 14) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _paths(obj, path=()):
    """Every path from the root to a value inside obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated_files(draw):
    """The canonical file with a few byte edits, or a few values replaced or deleted."""
    if draw(st.booleans()):
        data = bytearray(CANONICAL)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(data)))
            new = draw(st.binary(max_size=3))
            data[i : i + draw(st.integers(0, 3))] = new
        return bytes(data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data)
    obj = json.loads(CANONICAL)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.integers(-1, 13) | JSON_VALUES)
    return (json.dumps(obj, indent=2) + "\n").encode()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@settings(deadline=None)
@given(data=mutated_files(), fmt=st.sampled_from(["table", "structured"]))
def test_verify_survives_mutated_files(fuzz_file, data, fmt):
    fuzz_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(fuzz_file), "--format", fmt])
    assert code in (0, 1, 2)
    assert (code == 0) == (data == CANONICAL)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith(("parse error:", "error:"))
    elif fmt == "structured":
        assert isinstance(json.loads(out.getvalue()), dict)


def test_remark3_rejects_line_off_u(capsys):
    code, _, err = run(capsys, "remark3", "--line", "#4")
    assert code == 2


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_no_command_prints_usage(capsys):
    code, out, err = run(capsys)
    assert code == 2
