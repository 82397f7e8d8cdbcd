"""Design verifier and Steiner-system engine tests.

verify_t_design is the arbiter for the whole package, so its own
honesty matters most: every violation witness it emits is re-checked
here by naive counting, and the happy paths are cross-checked against
structures whose parameters are known (the plane, the model, the affine
residues).  The completion engine is run on both Steiner systems of the
package, the design S(5,6,12) and a line's affine residue S(2,3,9): its
schedule must complete every block once (a faulty one raises), its
completion table must reject a repeated or a missing block, and its
used-image check must drop the rows that map a non-collinear frame onto
a cut line.
"""

import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from witt12 import checks, design, symmetry
from witt12.checks import (
    DesignParams,
    DesignViolation,
    IncidenceStructure,
    InvariantError,
    Record,
    affine_residue,
    complete_maps,
    completion_table,
    derived_design,
    lambda_cascade,
    verify_t_design,
)
from witt12.design import BlockSolution, as_incidence_structure, construct
from witt12.gf3 import Mat
from witt12.plane import PLANE, ProjLine
from witt12.quadrics import QuadraticForm, canonical_table


@pytest.fixture(scope="module")
def witt(model):
    return as_incidence_structure(model)


@pytest.fixture(scope="module")
def plane_structure():
    return IncidenceStructure(
        tuple(p.index for p in PLANE.points),
        tuple(ln.points for ln in PLANE.lines),
    )


def test_incidence_structure_canonicalizes_blocks():
    # point order is preserved; blocks are sorted inside and across
    s = IncidenceStructure((3, 1, 2), ((2, 1), (3, 1), (1, 2)))
    assert s.points == (3, 1, 2)
    assert s.blocks == ((1, 2), (1, 2), (1, 3))


def test_incidence_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure((1, 1, 2), ((1, 2),))
    with pytest.raises(ValueError):
        IncidenceStructure((1, 2), ((1, 1),))
    with pytest.raises(ValueError):
        IncidenceStructure((1, 2), ((1, 3),))


def test_witt_model_is_a_5_design(witt):
    result = verify_t_design(witt, 5)
    assert result == DesignParams(5, 12, 6, 1)


def test_plane_is_a_2_design(plane_structure):
    assert verify_t_design(plane_structure, 2) == DesignParams(2, 13, 4, 1)
    assert verify_t_design(plane_structure, 1) == DesignParams(1, 13, 4, 4)


def test_verifier_argument_errors(witt):
    with pytest.raises(ValueError):
        verify_t_design(witt, 0)
    with pytest.raises(ValueError):
        verify_t_design(witt, 7)  # t beyond the block size
    with pytest.raises(ValueError):
        verify_t_design(IncidenceStructure((1, 2), ()), 1)


def test_verifier_rejects_a_structure_without_points():
    with pytest.raises(ValueError, match="^structure has no points$"):
        verify_t_design(IncidenceStructure((), ((),)), 1)


def naive_count(blocks, subset):
    return sum(1 for b in blocks if set(subset) <= set(b))


def test_deleted_block_yields_a_sound_witness(witt):
    damaged = IncidenceStructure(witt.points, witt.blocks[1:])
    result = verify_t_design(damaged, 5)
    assert isinstance(result, DesignViolation)
    # the witness must genuinely violate under naive recounting
    assert naive_count(damaged.blocks, result.witness) == result.count
    assert result.count != result.expected


def test_tampered_block_yields_a_sound_witness(witt):
    blocks = list(witt.blocks)
    b = set(blocks[7])
    outside = next(x for x in witt.points if x not in b)
    blocks[7] = tuple(sorted(b - {max(b)} | {outside}))
    result = verify_t_design(IncidenceStructure(witt.points, blocks), 5)
    assert isinstance(result, DesignViolation)
    assert naive_count(blocks, result.witness) == result.count
    assert result.count != result.expected


def test_lambda_cascade_of_the_model():
    assert lambda_cascade(DesignParams(5, 12, 6, 1)) == (132, 66, 30, 12, 4, 1)
    assert lambda_cascade(DesignParams(2, 13, 4, 1)) == (13, 4, 1)


def test_lambda_cascade_by_direct_counting(witt):
    cascade = lambda_cascade(DesignParams(5, 12, 6, 1))
    for j in range(6):
        counts = Counter(
            sub for b in witt.blocks for sub in itertools.combinations(b, j)
        )
        assert len(counts) == len(list(itertools.combinations(witt.points, j)))
        assert set(counts.values()) == {cascade[j]}


def test_lambda_cascade_rejects_infeasible_parameters():
    with pytest.raises(ValueError):
        lambda_cascade(DesignParams(2, 8, 3, 1))  # lambda_1 would be 7/2


def test_derived_at_a_point_is_a_4_design(witt):
    d = derived_design(witt, (witt.points[0],))
    assert verify_t_design(d, 4) == DesignParams(4, 11, 5, 1)


def test_derived_rejects_foreign_points(witt):
    with pytest.raises(ValueError):
        derived_design(witt, (99,))


def test_affine_residue_shape():
    for g in PLANE.lines:
        r = affine_residue(PLANE, g)
        assert len(r.points) == 9
        assert len(r.blocks) == 12
        assert all(len(b) == 3 for b in r.blocks)
        assert verify_t_design(r, 2) == DesignParams(2, 9, 3, 1)


def test_triple_derivation_equals_affine_residue(model, witt, lines_through_u):
    assert len(lines_through_u) == 4
    for g in lines_through_u:
        cut = tuple(x for x in g.points if x != model.u.index)
        d = derived_design(witt, cut)
        assert verify_t_design(d, 2) == DesignParams(2, 9, 3, 1)
        r = affine_residue(PLANE, g)
        assert d.points == r.points
        assert d.blocks == r.blocks


def test_a_line_meeting_g_twice_breaks_the_residue():
    # a copied plane whose line #1 trades one point off g = #0 for a
    # second point of g: its cut keeps two points
    g, ln = PLANE.lines[0], PLANE.lines[1]
    out = next(x for x in ln.points if x not in g.points)
    into = next(x for x in g.points if x not in ln.points)
    edited = ProjLine(ln.index, ln.dual, tuple(sorted(set(ln.points) - {out} | {into})))
    plane = SimpleNamespace(points=PLANE.points, lines=(g, edited, *PLANE.lines[2:]))
    with pytest.raises(InvariantError, match="^a line does not meet g in exactly one point$"):
        affine_residue(plane, g)


# ------------------------------------------------------- Steiner-system engine


def local_residue(k):
    """The cut lines of line #k in positions 0..8 of its affine residue."""
    residue = affine_residue(PLANE, PLANE.lines[k])
    pos = {p: i for i, p in enumerate(residue.points)}
    return [tuple(pos[x] for x in ln) for ln in residue.blocks]


STEINER_FRAMES = [
    ("design", (0, 1, 2, 3, 4)),
    ("design", (11, 3, 7, 0, 5)),
    ("design", (0, 1, 2, 3)),
    ("residue0", ()),
    ("residue1", ()),
    ("residue0", (0, 1)),
    ("residue1", (8, 2, 5)),
]


def steiner_blocks(model, name):
    return list(model.local_blocks) if name == "design" else local_residue(int(name[-1]))


@pytest.mark.parametrize("name, frame", STEINER_FRAMES)
def test_schedule_completes_every_block_once(model, name, frame):
    blocks = steiner_blocks(model, name)
    v = 12 if name == "design" else 9
    placed = set(frame)
    completed = []
    for x, done in checks._schedule(blocks, frame):
        assert x not in placed
        for others in done:
            assert set(others) <= placed  # x is its block's last point
            completed.append(tuple(sorted((*others, x))))
        placed.add(x)
    assert placed == set(range(v))
    assert sorted(completed) == sorted(tuple(sorted(b)) for b in blocks)


@pytest.mark.parametrize("name", ["dropped", "repeated"])
def test_a_schedule_that_checks_a_block_twice_or_never_raises(monkeypatch, model, name):
    schedule = checks._schedule

    def faulty(blocks, frame):
        steps = schedule(blocks, frame)
        x, done = steps[-1]
        steps[-1] = (x, done[1:] if name == "dropped" else done + done[:1])
        return steps

    monkeypatch.setattr(checks, "_schedule", faulty)
    with pytest.raises(InvariantError, match="^the schedule checks a block twice or never$"):
        symmetry.complete_maps(model.sixth, model.local_blocks, range(5), [range(5)])


def test_completion_tables_of_both_systems(model):
    assert completion_table(model.local_blocks, 12, 5) == model.sixth
    lines = local_residue(0)
    table = completion_table(lines, 9, 2)
    assert len(table) == 36
    masks = {sum(1 << x for x in ln) for ln in lines}
    assert all(key | 1 << x in masks and not key >> x & 1 for key, x in table.items())


@pytest.mark.parametrize("name", ["design", "residue0"])
def test_a_frame_containing_a_block_raises(model, name):
    blocks = steiner_blocks(model, name)
    t = len(blocks[0]) - 1
    table = completion_table(blocks, 12 if name == "design" else 9, t)
    frame = tuple(blocks[5])
    with pytest.raises(ValueError, match="^the frame contains a block$"):
        complete_maps(table, blocks, frame, [frame])
    extra = next(x for x in range(9) if x not in frame)
    with pytest.raises(ValueError, match="^the frame contains a block$"):
        complete_maps(table, blocks, (extra, *frame), [(extra, *frame)])


def test_engine_rejects_bad_frames_and_rows():
    lines = local_residue(0)
    table = completion_table(lines, 9, 2)
    for frame in [(0, 0), (0, 9), (-1, 2)]:
        with pytest.raises(ValueError, match="^the frame must be distinct points$"):
            complete_maps(table, lines, frame, [(0, 1)])
    for row in [(0,), (0, 1, 2), (3, 3), (0, 9), (-1, 0)]:
        with pytest.raises(ValueError, match="^every image row must be 2 distinct points$"):
            complete_maps(table, lines, (0, 1), [row])


def fault(name, blocks):
    return blocks + blocks[:1] if name == "repeated" else blocks[1:]


@pytest.mark.parametrize(
    "name, message",
    [("repeated", "^a 5-set inside two blocks$"), ("dropped", "^a 5-set of the 12 points is uncovered$")],
)
def test_construct_rejects_a_repeated_or_missing_block(monkeypatch, name, message):
    # construct's sixth-point table is built by completion_table
    monkeypatch.setattr(design, "completion_table", lambda b, v, t: completion_table(fault(name, b), v, t))
    with pytest.raises(InvariantError, match=message):
        design.construct()


@pytest.mark.parametrize(
    "name, message",
    [("repeated", "^a 2-set inside two blocks$"), ("dropped", "^a 2-set of the 9 points is uncovered$")],
)
def test_residue_table_rejects_a_repeated_or_missing_line(monkeypatch, name, message):
    # affinities reads the residue's third-point table from completion_table,
    # built once per line: clear the cache so that line #3's is built here
    symmetry._residue.cache_clear()
    monkeypatch.setattr(symmetry, "completion_table", lambda b, v, t: completion_table(fault(name, b), v, t))
    with pytest.raises(InvariantError, match=message):
        symmetry.affinities(PLANE.lines[3])


@pytest.mark.parametrize("k", [0, 1])
def test_collinear_frame_rows_die_at_the_used_image_check(k):
    # frame: three non-collinear points.  A row sending them onto a cut
    # line forces the third point of the first frame pair onto an image
    # already used; the other 432 rows each extend to one affinity
    lines = local_residue(k)
    table = completion_table(lines, 9, 2)
    frame = (0, 1, next(x for x in range(2, 9) if x != table[0b11]))
    rows = list(itertools.permutations(range(9), 3))
    kept = [r for r in rows if table[1 << r[0] | 1 << r[1]] != r[2]]
    assert len(kept) == 432
    completed = complete_maps(table, lines, frame, rows)
    assert [tuple(p[x] for x in frame) for p in completed] == kept
    assert sorted(completed) == list(symmetry.affinities(PLANE.lines[k]))


# Record, the frozen value base of every record type: the strings below
# were printed by the dataclass-based records it replaced


def test_record_repr_is_pinned(model):
    assert repr(PLANE.points[4]) == "ProjPoint(index=4, rep=(1, 0, 0))"
    assert repr(PLANE.lines[0]) == "ProjLine(index=0, dual=(0, 0, 1), points=(1, 4, 7, 10))"
    assert repr(DesignViolation("coverage", (0, 1, 2, 3, 4), 2, 1)) == (
        "DesignViolation(kind='coverage', witness=(0, 1, 2, 3, 4), count=2, expected=1)"
    )
    assert repr(BlockSolution("B", (2, 3, 8, 9, 11, 12), QuadraticForm.of(0, 0, 0, 1, 0, 2), 1, 0)) == (
        "BlockSolution(case='B', block=(2, 3, 8, 9, 11, 12), "
        "form=QuadraticForm(coeffs=(0, 0, 0, 1, 0, 2)), dimension=1, determinant=0)"
    )
    assert repr(canonical_table()[0]) == (
        "TableRow(label='x0^2 + x1^2 + x2^2', form=QuadraticForm(coeffs=(1, 0, 0, 1, 0, 1)), "
        "counts=(4, 3, 6))"
    )
    assert repr(IncidenceStructure([1, 2, 3], [[3, 1]])) == (
        "IncidenceStructure(points=(1, 2, 3), blocks=((1, 3),))"
    )
    assert repr(model) == "WittModel(u=#4(1:0:0), blocks=132)"


def test_record_hash_is_the_hash_of_its_field_tuple():
    # set and dict orders, and so every pinned output, depend on this
    p = PLANE.points[4]
    q = QuadraticForm.of(1, 0, 0, 1, 0, 1)
    m = Mat(((1, 2), (0, 1)))
    assert hash(p) == hash((4, (1, 0, 0)))
    assert hash(q) == hash(((1, 0, 0, 1, 0, 1),))
    assert hash(m) == hash((((1, 2), (0, 1)),))
    assert q == QuadraticForm((1, 0, 0, 1, 0, 1)) and q != QuadraticForm.of(2, 0, 0, 2, 0, 2)


def test_record_is_frozen():
    p = PLANE.points[4]
    with pytest.raises(AttributeError):
        p.index = 5
    with pytest.raises(AttributeError):
        p.extra = 5
    with pytest.raises(AttributeError):
        del p.rep
    assert p == PLANE.points[4] and p.index == 4


def test_records_of_different_types_are_unequal():
    # equal field tuples, so equal hashes, but two types
    assert DesignViolation(5, 12, 6, 1) != DesignParams(5, 12, 6, 1)
    assert DesignParams(5, 12, 6, 1) != (5, 12, 6, 1)
    assert DesignParams(5, 12, 6, 1) == DesignParams(5, 12, 6, 1)


def test_witt_model_compares_by_identity():
    a, b = construct(PLANE.points[4]), construct(PLANE.points[4])
    assert a == a and a != b
    assert len({a, b, a}) == 2


class _Defaulted(Record):
    # a class attribute named like a field is not its default
    a: int
    b: int = 0


def test_record_keyword_construction():
    assert DesignViolation("coverage", count=2, expected=1, witness=(0,)) == (
        DesignViolation("coverage", (0,), 2, 1)
    )
    assert _Defaulted(b=2, a=1).b == 2
    assert DesignParams(v=12, t=5, lambda_=1, k=6) == DesignParams(5, 12, 6, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DesignParams(5, 12, 6),
        lambda: DesignParams(5, 12, 6, 1, 0),
        lambda: DesignParams(5, 12, 6, 1, mu=0),
        lambda: DesignParams(5, 12, 6, t=1),
        lambda: DesignParams(),
        lambda: _Defaulted(1),
    ],
)
def test_record_rejects_wrong_arguments(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mat(()),
        lambda: Mat(((),)),
        lambda: Mat(((1, 2), (1,))),
        lambda: Mat(((3,),)),
        lambda: QuadraticForm((1, 0, 0)),
        lambda: QuadraticForm((3, 0, 0, 0, 0, 0)),
    ],
)
def test_record_post_init_validation(make):
    with pytest.raises(ValueError):
        make()
