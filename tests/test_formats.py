"""Codec tests: text matrices, JSON covers, sniffing loader."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecover import (
    CliqueFamily,
    ColorMatrix,
    CoverageViolation,
    FormatError,
    GenerationFailed,
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
    construct_kpartite_avoiding,
    construct_mod_m,
    construct_recursive_matrix,
    cover_from_obj,
    cover_to_obj,
    kpartite_from_obj,
    kpartite_to_obj,
    load_instance,
    matrix_to_rectangles,
    parse_matrix,
    random_cover,
    violation_to_obj,
    witness_to_obj,
    write_matrix,
)
from shufflecover import formats

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
        # what int() alone tolerates: underscores, signs, non-ASCII digits
        # and spaces, and line breaks other than "\n"
        "1_0 1\n0",
        "+1 1\n0",
        "\u0661 1\n0",
        "1 1\n1_0",
        "1 1\n+3",
        "1 1\n\u0661",
        "1 2\n0\u00a00",
        "1 1\n0\n\u3000",
        "2 2\n0 0\x0c0 0\n",
        "2 2\n0 0\r0 0\n",
        "2 2\n0 0\u20280 0\n",
    ],
)
def test_parse_matrix_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_matrix(text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("1_0 1\n0", "bad matrix header"),
        ("+1 1\n0", "bad matrix header"),
        ("\u0661 1\n0", "bad matrix header"),
        ("1 1\n1_0", "bad matrix row"),
        ("1 1\n+3", "bad matrix row"),
        ("1 1\n\u0661", "bad matrix row"),
        ("1 2\n0\u00a00", "bad matrix row"),
    ],
)
def test_parse_matrix_words_what_int_tolerates(text, error):
    with pytest.raises(FormatError, match=f"^{error}: "):
        parse_matrix(text)


def test_parse_matrix_takes_crlf_lines():
    assert parse_matrix("2 2\r\n0 1\r\n\r\n2 3\r\n") == ColorMatrix(((0, 1), (2, 3)))


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


@pytest.mark.parametrize("text", ["[]", " [1, 2]", '["rectangles"]', "[", "[{}]"])
def test_load_instance_reads_a_bracket_as_json(text):
    # input that opens with [ is JSON, not matrix text, and JSON input must
    # be an object
    with pytest.raises(FormatError, match="JSON") as err:
        load_instance(text)
    assert "matrix" not in str(err.value)


# ---------------------------------------------------------------------------
# the bulk rectangle-list check against the per-rectangle path


def outcome(text: str):
    """What ``load_instance`` gives: the object, or the FormatError message."""
    try:
        return load_instance(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def assert_same_as_per_rectangle(obj) -> None:
    """``obj`` loads as it does when every rectangle list is loaded
    rectangle by rectangle: the same object, down to the types its repr
    shows (frozenset sides, int ids), or the same error message."""
    text = json.dumps(obj)
    got = outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RectangleCover, "_from_lists", lambda *args, **kwargs: None)
        want = outcome(text)
    assert got == want
    assert repr(got) == repr(want)


VALID_OBJECTS = [
    *(cover_to_obj(construct_recursive_matrix(k)) for k in range(2, 6)),
    *(cover_to_obj(construct_mod_m(n, m)) for n, m in ((1, 1), (5, 2), (9, 3), (16, 5))),
    *(kpartite_to_obj(construct_kpartite_avoiding(*nmk)) for nmk in ((1, 1, 2), (4, 3, 5))),
    # sides in any order, with a repeated index, and extra keys
    {"n_rows": 2, "n_cols": 3, "extra": 1, "rectangles": [
        {"color": 4, "rows": [1, 0, 1], "cols": [2, 0, 1], "note": "x"},
    ]},
]


@pytest.mark.parametrize("obj", VALID_OBJECTS)
def test_bulk_load_matches_per_rectangle_on_valid_input(obj):
    assert_same_as_per_rectangle(obj)
    assert not isinstance(outcome(json.dumps(obj)), str)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 6), mms=st.integers(1, 3), seed=st.integers(0, 999))
def test_bulk_load_matches_per_rectangle_on_random_covers(n, m, mms, seed):
    try:
        cover = random_cover(n, m, mms, seed)
    except GenerationFailed:
        return
    obj = cover_to_obj(cover)
    assert load_instance(json.dumps(obj)) == cover
    assert_same_as_per_rectangle(obj)


def set_index(side: str, value):
    def mutate(rect, rng):
        rect[side][rng.randrange(len(rect[side]))] = value
    return mutate


def set_field(key: str, value):
    def mutate(rect, rng):
        rect[key] = value
    return mutate


def drop_field(key: str):
    def mutate(rect, rng):
        del rect[key]
    return mutate


# one mutation of each kind, applied to one rectangle
MUTATIONS = {
    "bool row": set_index("rows", True),
    "bool col": set_index("cols", False),
    "float row": set_index("rows", 1.0),
    "float col": set_index("cols", 0.0),
    "negative row": set_index("rows", -1),
    "negative col": set_index("cols", -2),
    "row out of range": set_index("rows", 10**6),
    "col out of range": set_index("cols", 10**6),
    "empty rows": set_field("rows", []),
    "empty cols": set_field("cols", []),
    "rows not a list": set_field("rows", 5),
    "cols a string": set_field("cols", "0"),
    "cols an object": set_field("cols", {"0": 0}),
    "nested list": set_index("rows", [0]),
    "bool color": set_field("color", True),
    "float color": set_field("color", 1.0),
    "negative color": set_field("color", -1),
    "missing color": drop_field("color"),
    "missing rows": drop_field("rows"),
    "missing cols": drop_field("cols"),
}


def mutated(obj, rects, name: str, rng):
    """``obj`` with ``rects`` (a rectangle list inside it) changed at one
    random place by the mutation ``name``."""
    i = rng.randrange(len(rects))
    if name == "not a dict":
        rects[i] = [rects[i]["color"]]
    elif name == "duplicate color":
        rects[i]["color"] = rects[rng.randrange(len(rects))]["color"]
    else:
        MUTATIONS[name](rects[i], rng)
    return obj


SOURCES = [
    lambda: cover_to_obj(construct_recursive_matrix(4)),
    lambda: cover_to_obj(construct_mod_m(7, 3)),
    lambda: cover_to_obj(random_cover(8, 4, 2, seed=3)),
    lambda: kpartite_to_obj(construct_kpartite_avoiding(4, 3, 4)),
]


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(range(len(SOURCES))),
    name=st.sampled_from([*MUTATIONS, "not a dict", "duplicate color"]),
    seed=st.integers(0, 10**6),
)
def test_bulk_load_words_errors_as_per_rectangle(source, name, seed):
    rng = random.Random(seed)
    obj = SOURCES[source]()
    if "pairs" in obj:
        rects = obj["pairs"][rng.randrange(len(obj["pairs"]))]["rectangles"]
    else:
        rects = obj["rectangles"]
    assert_same_as_per_rectangle(mutated(obj, rects, name, rng))


@pytest.mark.parametrize("key", ["n_rows", "n_cols"])
@pytest.mark.parametrize("value", [True, 0, -1, 2.0, "2", None])
def test_bulk_load_words_size_errors_as_per_rectangle(key, value):
    obj = cover_to_obj(construct_mod_m(3, 2))
    obj[key] = value
    assert_same_as_per_rectangle(obj)
    assert isinstance(outcome(json.dumps(obj)), str)


@pytest.mark.parametrize("value", [True, 0, 1.0, 1])
def test_bulk_load_kpartite_part_size_as_per_rectangle(value):
    obj = kpartite_to_obj(construct_kpartite_avoiding(3, 2, 3))
    obj["n"] = value
    assert_same_as_per_rectangle(obj)


def test_valid_input_never_loads_rectangle_by_rectangle(monkeypatch):
    # a bipartite cover only: a k-partite pair holds a few rectangles, so
    # its lists are always loaded rectangle by rectangle
    matrix = construct_recursive_matrix(5)
    text = json.dumps(cover_to_obj(matrix))

    def one_rectangle(obj):
        raise AssertionError("a valid rectangle list was loaded rectangle by rectangle")

    monkeypatch.setattr(formats, "_rectangle_from_obj", one_rectangle)
    assert load_instance(text) == matrix_to_rectangles(matrix)
