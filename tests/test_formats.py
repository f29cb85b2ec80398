"""Codec tests: text matrices, JSON covers, sniffing loader."""

import json

import pytest

from shufflecover import (
    CliqueFamily,
    ColorMatrix,
    CoverageViolation,
    FormatError,
    KPartiteCover,
    KPartiteCoverageViolation,
    KPartiteShuffleViolation,
    KPartiteWitness,
    LocalityViolation,
    Rectangle,
    RectangleCover,
    ShuffleViolation,
    SuperimposedWitness,
    Witness,
    clique_family_from_obj,
    clique_family_to_obj,
    cover_from_obj,
    cover_to_obj,
    kpartite_from_obj,
    kpartite_to_obj,
    load_instance,
    parse_matrix,
    violation_to_obj,
    witness_to_obj,
    write_matrix,
)

MATRIX = ColorMatrix(((1, 5, 2, 2), (1, 4, 3, 4), (8, 5, 8, 7), (6, 6, 3, 7)))


def test_matrix_text_round_trip():
    assert parse_matrix(write_matrix(MATRIX)) == MATRIX


def test_write_matrix_layout():
    text = write_matrix(ColorMatrix(((0, 1), (2, 3))))
    assert text == "2 2\n0 1\n2 3\n"


def test_parse_matrix_skips_blank_lines():
    assert parse_matrix("2 2\n\n0 1\n\n2 3\n\n") == ColorMatrix(((0, 1), (2, 3)))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n0 1\n2 3",
        "2 2\n0 1",
        "2 2\n0 1\n2 3\n4 5",
        "2 2\n0 1\n2",
        "2 2\n0 1\nx y",
        "0 2",
        "2 2\n0 -1\n2 3",
    ],
)
def test_parse_matrix_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_matrix(text)


def sample_cover() -> RectangleCover:
    return RectangleCover(
        n_rows=3,
        n_cols=2,
        rectangles=(
            Rectangle(color=0, rows=[0, 1], cols=[0]),
            Rectangle(color=2, rows=[2], cols=[0, 1]),
        ),
    )


def test_cover_json_round_trip():
    cover = sample_cover()
    obj = json.loads(json.dumps(cover_to_obj(cover)))
    assert cover_from_obj(obj) == cover


def test_cover_obj_is_sorted_and_plain():
    obj = cover_to_obj(sample_cover())
    assert obj["rectangles"][0] == {"color": 0, "rows": [0, 1], "cols": [0]}


@pytest.mark.parametrize(
    "obj",
    [
        {"n_rows": 2, "n_cols": 2},
        {"n_rows": 2, "n_cols": 2, "rectangles": [{"color": 0, "rows": [0]}]},
        {"n_rows": 2, "n_cols": 2, "rectangles": [{"color": 0, "rows": [], "cols": [0]}]},
        {"n_rows": 0, "n_cols": 2, "rectangles": []},
        "not a dict",
        {"n_rows": 2.5, "n_cols": 2, "rectangles": []},
        {"n_rows": True, "n_cols": 1, "rectangles": []},
    ],
)
def test_cover_from_obj_rejects_malformed(obj):
    with pytest.raises(FormatError):
        cover_from_obj(obj)


RECT = {"color": 0, "rows": [0], "cols": [0]}
RECT_1 = {"color": 1, "rows": [1], "cols": [1]}
EMPTY_ROWS = {"color": 3, "rows": [], "cols": [0]}
NEED_KEYS = "rectangle objects need color, rows, cols"
EMPTY_SIDE = "bad rectangle: rectangle sides must be nonempty"

BAD_INPUTS = [
    # (loader, input object, the FormatError message): a rectangle list
    # that is not a list is the enclosing object's fault, a bad entry is
    # the rectangle's, and a bad rectangle is named before the sizes of the
    # cover that holds it are checked
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": 5},
     "bad cover: 'int' object is not iterable"),
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": [RECT, RECT_1, 7]}, NEED_KEYS),
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": [RECT, RECT_1, {"color": 2}]},
     NEED_KEYS),
    (cover_from_obj, {"n_rows": 0, "n_cols": 2, "rectangles": [RECT, EMPTY_ROWS]}, EMPTY_SIDE),
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": [RECT, RECT]},
     "bad cover: duplicate color 0 in cover"),
    (kpartite_from_obj, {"k": 2, "n": 2, "pairs": [{"parts": [0, 1], "rectangles": 5}]},
     "bad k-partite cover: 'int' object is not iterable"),
    (kpartite_from_obj,
     {"k": 2, "n": 2, "pairs": [{"parts": [0, 1], "rectangles": [RECT, RECT_1, 7]}]},
     NEED_KEYS),
    (kpartite_from_obj,
     {"k": 2, "n": 0, "pairs": [{"parts": [0, 1], "rectangles": [RECT, EMPTY_ROWS]}]},
     EMPTY_SIDE),
    # what the rectangle checks raise on bad index lists, word for word
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": [{**RECT, "rows": 5}]},
     "bad rectangle: 'int' object is not iterable"),
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": [{**RECT, "rows": [True, 1]}]},
     "bad rectangle: indices must be non-negative integers, got True"),
    (cover_from_obj, {"n_rows": 2, "n_cols": 2, "rectangles": [{**RECT, "rows": [[0]]}]},
     "bad rectangle: unhashable type: 'list'"),
]


@pytest.mark.parametrize(
    "loader, obj, message",
    BAD_INPUTS,
    ids=[f"case{i}" for i in range(len(BAD_INPUTS))],
)
def test_rectangle_list_errors_keep_their_precedence(loader, obj, message):
    with pytest.raises(FormatError) as exc:
        loader(obj)
    assert str(exc.value) == message
    with pytest.raises(FormatError) as exc:
        load_instance(json.dumps(obj))
    assert str(exc.value) == message


def sample_kpartite() -> KPartiteCover:
    full = Rectangle(color=0, rows=[0, 1], cols=[0, 1])
    return KPartiteCover(
        k=3, n=2, pairs=((0, 1, (full,)), (0, 2, (full,)), (1, 2, (full,)))
    )


def test_kpartite_json_round_trip():
    cover = sample_kpartite()
    obj = json.loads(json.dumps(kpartite_to_obj(cover)))
    assert kpartite_from_obj(obj) == cover


def test_kpartite_from_obj_rejects_bad_parts():
    for parts in ([1, 0], [0, 1, 7], [0], [0.5, 1], [True, 2]):
        obj = kpartite_to_obj(sample_kpartite())
        obj["pairs"][0]["parts"] = parts
        with pytest.raises(FormatError):
            kpartite_from_obj(obj)


def test_kpartite_from_obj_rejects_bad_sizes():
    for key, value in (("n", 1.5), ("n", True), ("k", 3.0)):
        obj = kpartite_to_obj(sample_kpartite())
        obj[key] = value
        with pytest.raises(FormatError):
            kpartite_from_obj(obj)


def test_kpartite_from_obj_rejects_malformed_rectangle():
    obj = kpartite_to_obj(sample_kpartite())
    del obj["pairs"][1]["rectangles"][0]["cols"]
    # the rectangle's own error comes through, not a generic k-partite one
    with pytest.raises(FormatError, match="rectangle objects need"):
        kpartite_from_obj(obj)
    with pytest.raises(FormatError, match="rectangle objects need"):
        load_instance(json.dumps(obj))


def test_clique_family_round_trip():
    family = CliqueFamily(
        n_vertices=5, cliques=((0, frozenset({0, 1, 2})), (3, frozenset({2, 4})))
    )
    obj = json.loads(json.dumps(clique_family_to_obj(family)))
    assert clique_family_from_obj(obj) == family


@pytest.mark.parametrize(
    "obj",
    [
        {"n_vertices": 2, "cliques": [{"color": 0, "vertices": [True]}]},
        {"n_vertices": 2.5, "cliques": [{"color": 0, "vertices": [0, 1]}]},
        {"n_vertices": True, "cliques": [{"color": 0, "vertices": [0]}]},
        {"n_vertices": 2, "cliques": [{"color": 0, "vertices": [0.0]}]},
    ],
)
def test_clique_family_from_obj_rejects_non_integers(obj):
    with pytest.raises(FormatError):
        clique_family_from_obj(obj)


def test_violation_objects_carry_kind():
    assert violation_to_obj(ShuffleViolation(0, 1, 0, 1, 7))["kind"] == "shuffle"
    assert violation_to_obj(CoverageViolation(1, 0)) == {
        "kind": "coverage",
        "row": 1,
        "col": 0,
    }
    obj = violation_to_obj(LocalityViolation(side="col", index=2, count=4, limit=3))
    assert obj["kind"] == "locality" and obj["side"] == "col"
    assert violation_to_obj(
        KPartiteShuffleViolation(color=1, part_u=0, u=2, part_v=3, v=1)
    ) == {"kind": "kpartite_shuffle", "color": 1, "part_u": 0, "u": 2, "part_v": 3, "v": 1}
    assert violation_to_obj(
        KPartiteCoverageViolation(part_a=0, part_b=2, row=1, col=3)
    ) == {"kind": "kpartite_coverage", "part_a": 0, "part_b": 2, "row": 1, "col": 3}


def test_witness_objects_carry_kind():
    w = witness_to_obj(Witness(color=3, rows={1, 0}, cols={2}))
    assert w == {"kind": "witness", "color": 3, "rows": [0, 1], "cols": [2]}
    kw = witness_to_obj(KPartiteWitness(color=1, parts=({0}, {1}, {0})))
    assert kw["kind"] == "kpartite_witness" and kw["parts"] == [[0], [1], [0]]
    sw = witness_to_obj(SuperimposedWitness(colors={2, 0}, vertices={3}))
    assert sw == {
        "kind": "superimposed_witness",
        "colors": [0, 2],
        "vertices": [3],
    }
    # key order and sorted sets are part of the CLI's byte-exact output;
    # {8, 1} iterates as 8, 1
    assert json.dumps(witness_to_obj(Witness(color=3, rows={8, 1}, cols={9, 2}))) == (
        '{"kind": "witness", "color": 3, "rows": [1, 8], "cols": [2, 9]}'
    )


def test_load_instance_sniffs_matrix():
    assert load_instance(write_matrix(MATRIX)) == MATRIX


def test_load_instance_sniffs_cover():
    assert load_instance(json.dumps(cover_to_obj(sample_cover()))) == sample_cover()


def test_load_instance_sniffs_kpartite():
    text = json.dumps(kpartite_to_obj(sample_kpartite()))
    assert load_instance(text) == sample_kpartite()


def test_load_instance_sniffs_clique_family():
    family = CliqueFamily(n_vertices=3, cliques=((1, frozenset({0, 2})),))
    assert load_instance(json.dumps(clique_family_to_obj(family))) == family


@pytest.mark.parametrize("text", ["", "   ", "{", '{"foo": 1}', "[1, 2]"])
def test_load_instance_rejects_unknown(text):
    with pytest.raises(FormatError):
        load_instance(text)
