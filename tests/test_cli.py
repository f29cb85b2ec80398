"""CLI tests: subcommands, exit codes, formats, pipe composition."""

import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from shufflecover import cli, core, formats, write_matrix, construct_recursive_matrix
from shufflecover import SearchStats, construct_block_circulant, guaranteed_p
from shufflecover.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_TEXT = "4 4\n1 5 2 2\n1 4 3 4\n8 5 8 7\n6 6 3 7\n"
FAMILY_TEXT = json.dumps({"n_vertices": 5, "cliques": [{"color": 0, "vertices": [0, 1, 2, 3, 4]}]})
# child interpreters import the package from src/, as the tests themselves do
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def feed(monkeypatch, text: str) -> None:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_generate_recursive_matches_golden(capsys):
    assert run(["generate", "--kind", "recursive", "--k", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN_TEXT


def test_generate_modm_json_round_trips(capsys):
    assert run(["generate", "--kind", "modm", "--n", "5", "--m", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_rows"] == 5 and len(obj["rectangles"]) == 2


def test_generate_kpartite_json(capsys):
    code = run(["generate", "--kind", "kpartite", "--n", "4", "--m", "2", "--k", "3"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["k"] == 3 and len(obj["pairs"]) == 3


def test_generate_kpartite_matrix_is_usage_error(monkeypatch, capsys):
    # --format is checked before the cover is built
    def build_cover(*args):
        raise AssertionError("the cover was built before --format was checked")

    flags, _, to_matrix = cli._KINDS["kpartite"]
    monkeypatch.setitem(cli._KINDS, "kpartite", (flags, build_cover, to_matrix))
    code = run(["generate", "--kind", "kpartite", "--n", "4", "--m", "2", "--k", "3",
                "--format", "matrix"])
    assert code == 64
    assert "no matrix form" in capsys.readouterr().err


def test_generate_missing_args_usage_error():
    assert run(["generate", "--kind", "modm", "--n", "5"]) == 64
    assert run(["generate", "--kind", "recursive"]) == 64
    assert run(["generate", "--kind", "kpartite", "--n", "4", "--m", "2"]) == 64


def test_unknown_flag_maps_to_64():
    assert run(["generate", "--nope"]) == 64
    assert run([]) == 64
    # the search runs in one process; there is no --workers option
    assert run(["search", "--n", "4", "--m", "3", "--p", "2", "--workers", "2"]) == 64
    assert run(["table", "--n-max", "2", "--workers", "2"]) == 64


COMMANDS = ("generate", "validate", "detect", "bound", "search", "superimposed", "table")


@pytest.mark.parametrize(
    "argv, env, message",
    [
        ([], None, "the following arguments are required: command"),
        (["generate", "--kind", "modm", "--n", "x"], None, "argument --n: invalid int value: 'x'"),
        (["generate", "--kind", "modm", "--n", "4", "--m", "2", "--bogus"], None,
         "unrecognized arguments: --bogus"),
        (["generate", "--kind", "kpartite", "--n", "3", "--m", "2", "--k", "3", "--format", "matrix"],
         None, "k-partite covers have no matrix form; use --format json"),
        (["search", "--n", "2", "--m", "2", "--p", "2"], "zz",
         "RAMSEY_GUARD_NODES must be an integer, got 'zz'"),
        (["generate", "--kind", "circulant", "--n", "9", "--m", "3"], None,
         "--kind circulant requires --n, --m, and --p"),
        (["generate", "--kind", "modm", "--n", "5"], None, "--kind modm requires --n and --m"),
        (["generate", "--kind", "recursive"], None, "--kind recursive requires --k"),
        (["generate", "--kind", "kpartite", "--n", "4", "--m", "2"], None,
         "--kind kpartite requires --n, --m, and --k"),
        (["generate", "--kind", "circulant", "--n", "9", "--m", "3", "--p", "3"], None,
         "p = 3 is at most guaranteed_p(9, 3) = 3: every 3-local coloring of the 9x9 grid"
         " holds a monochromatic K_{3,3}"),
    ],
)
def test_usage_errors_print_one_line(monkeypatch, capsys, argv, env, message):
    if env is not None:
        monkeypatch.setenv("RAMSEY_GUARD_NODES", env)
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_unknown_command_usage_error_lists_the_commands(capsys):
    assert run(["nope"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    # older argparse releases quote the choices, newer ones print them bare
    assert captured.err in {
        f"usage error: argument command: invalid choice: 'nope' (choose from {choices})\n"
        for choices in (", ".join(map(repr, COMMANDS)), ", ".join(COMMANDS))
    }


def test_generate_to_file_and_validate_from_file(tmp_path, capsys):
    path = tmp_path / "golden.txt"
    assert run(["generate", "--kind", "recursive", "--k", "2", "--out", str(path)]) == 0
    assert path.read_text() == GOLDEN_TEXT
    assert run(["validate", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_shuffle_violation(monkeypatch, capsys):
    feed(monkeypatch, "2 2\n1 2\n2 1\n")
    assert run(["validate"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "shuffle" and obj["color"] == 1


def test_validate_cover_coverage_gap(monkeypatch, capsys):
    cover = {"n_rows": 2, "n_cols": 2,
             "rectangles": [{"color": 0, "rows": [0], "cols": [0, 1]}]}
    feed(monkeypatch, json.dumps(cover))
    assert run(["validate"]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "coverage"


def test_validate_max_local(monkeypatch, capsys):
    feed(monkeypatch, GOLDEN_TEXT)
    assert run(["validate", "--max-local", "3"]) == 0
    capsys.readouterr()
    feed(monkeypatch, GOLDEN_TEXT)
    assert run(["validate", "--max-local", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "locality"


def test_validate_max_local_reports_a_column(monkeypatch, capsys):
    # the 6x6 mod-3 cover: rows see one color each, columns all three
    run(["generate", "--kind", "modm", "--n", "6", "--m", "3", "--format", "json"])
    feed(monkeypatch, capsys.readouterr().out)
    assert run(["validate", "--max-local", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        '{"kind": "locality", "side": "col", "index": 0, "count": 3, "limit": 2}\n'
    )
    assert captured.err == ""


def test_validate_computes_the_profile_only_for_max_local(monkeypatch, capsys):
    matrix_text = write_matrix(construct_recursive_matrix(3))
    run(["generate", "--kind", "modm", "--n", "6", "--m", "3", "--format", "json"])
    cover_text = capsys.readouterr().out

    def profile(instance):
        raise AssertionError("the locality profile was computed without --max-local")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "matrix_local_profile", profile)
        patch.setattr(cli, "local_profile", profile)
        for text in (matrix_text, cover_text):
            feed(patch, text)
            assert run(["validate"]) == 0
            assert capsys.readouterr().out == "ok\n"
    # with a limit the profile is computed, and the output is as before
    for text, limit, code, out in (
        (matrix_text, "6", 0, "ok\n"),
        (matrix_text, "5", 2,
         '{"kind": "locality", "side": "row", "index": 0, "count": 6, "limit": 5}\n'),
        (cover_text, "3", 0, "ok\n"),
        (cover_text, "2", 2,
         '{"kind": "locality", "side": "col", "index": 0, "count": 3, "limit": 2}\n'),
    ):
        feed(monkeypatch, text)
        assert run(["validate", "--max-local", limit]) == code
        assert capsys.readouterr() == (out, "")


def test_validate_kpartite_input(monkeypatch, capsys):
    run(["generate", "--kind", "kpartite", "--n", "3", "--m", "2", "--k", "3"])
    text = capsys.readouterr().out
    feed(monkeypatch, text)
    assert run(["validate"]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    # locality budgets are defined for bipartite inputs only
    feed(monkeypatch, text)
    assert run(["validate", "--max-local", "2"]) == 64


def test_validate_max_local_on_kpartite_is_refused_before_validating(monkeypatch, capsys):
    # the usage error does not depend on the data: dropping a rectangle of
    # pair (0, 1) breaks the cover, and --max-local is still refused first
    run(["generate", "--kind", "kpartite", "--n", "3", "--m", "2", "--k", "3"])
    obj = json.loads(capsys.readouterr().out)
    assert obj["pairs"][0]["parts"] == [0, 1]
    del obj["pairs"][0]["rectangles"][0]
    feed(monkeypatch, json.dumps(obj))
    assert run(["validate"]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "kpartite_shuffle"
    feed(monkeypatch, json.dumps(obj))
    assert run(["validate", "--max-local", "2"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: --max-local applies to bipartite matrices and covers only\n"
    )


def test_validate_empty_stdin_is_data_error(monkeypatch):
    feed(monkeypatch, "")
    assert run(["validate"]) == 65


def test_missing_file_is_data_error(tmp_path, capsys):
    # a directory, or a file whose bytes are not UTF-8, is unusable input
    # too, not an output error or a usage error
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1 1\n\xff\n")
    for path in ("/no/such/file", str(tmp_path), str(latin1)):
        assert run(["validate", "--in", path]) == 65, path
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: "), path


def test_unwritable_output_is_an_output_error(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.txt", tmp_path):
        argv = ["generate", "--kind", "modm", "--n", "3", "--m", "2", "--out", str(out)]
        assert run(argv) == 74, out
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("output error: "), out


RECT = {"color": 0, "rows": [0], "cols": [0]}
# a true next to a 1 must not merge into it as a set member
MERGED_ROWS = {"color": 0, "rows": [1, True, 0], "cols": [0, 1]}
RECT_1 = {"color": 1, "rows": [1], "cols": [1]}
EMPTY_ROWS = {"color": 3, "rows": [], "cols": [0]}
BAD_INPUTS = [
    # (input object, argv, the message stderr must give)
    (
        {"n_rows": 2.5, "n_cols": 2, "rectangles": [RECT]},
        ["validate"],
        "bad cover: cover dimensions must be positive integers, got 2.5",
    ),
    (
        {"n_rows": 2.5, "n_cols": 2, "rectangles": [RECT]},
        ["detect", "--p", "1"],
        "bad cover: cover dimensions must be positive integers, got 2.5",
    ),
    (
        {"n_rows": True, "n_cols": 1, "rectangles": [RECT]},
        ["validate"],
        "bad cover: cover dimensions must be positive integers, got True",
    ),
    (
        {"k": 2, "n": 1.5, "pairs": [{"parts": [0, 1], "rectangles": [RECT]}]},
        ["validate"],
        "bad k-partite cover: part size n must be a positive integer, got 1.5",
    ),
    (
        {"k": 2, "n": 1.5, "pairs": [{"parts": [0, 1], "rectangles": [RECT]}]},
        ["detect", "--p", "1"],
        "bad k-partite cover: part size n must be a positive integer, got 1.5",
    ),
    (
        {"k": 2, "n": 1, "pairs": [{"parts": [0, 1, 7], "rectangles": [RECT]}]},
        ["validate"],
        "k-partite parts must be a pair of part ids, got [0, 1, 7]",
    ),
    (
        {"n_vertices": 2, "cliques": [{"color": 0, "vertices": [True]}]},
        ["superimposed", "--t", "1"],
        "bad clique family: indices must be non-negative integers, got True",
    ),
    (
        {"n_vertices": 2.5, "cliques": [{"color": 0, "vertices": [0]}]},
        ["superimposed", "--t", "1"],
        "bad clique family: vertex count must be a positive integer, got 2.5",
    ),
    (
        {"n_rows": 2, "n_cols": 2, "rectangles": [MERGED_ROWS]},
        ["validate"],
        "bad rectangle: indices must be non-negative integers, got True",
    ),
    (
        {"k": 2, "n": 2, "pairs": [{"parts": [0, 1], "rectangles": [MERGED_ROWS]}]},
        ["validate"],
        "bad rectangle: indices must be non-negative integers, got True",
    ),
    (
        {"n_vertices": 3, "cliques": [{"color": 0, "vertices": [1, True, 2]}]},
        ["superimposed", "--t", "1"],
        "bad clique family: indices must be non-negative integers, got True",
    ),
    # rectangle lists: a list that is not one is the cover's fault, a bad
    # entry is the rectangle's, and a bad rectangle is named before the
    # sizes of the cover or k-partite cover that holds it are checked
    (
        {"n_rows": 2, "n_cols": 2, "rectangles": 5},
        ["validate"],
        "bad cover: 'int' object is not iterable",
    ),
    (
        {"n_rows": 2, "n_cols": 2, "rectangles": [RECT, RECT_1, 7]},
        ["detect", "--p", "1"],
        "rectangle objects need color, rows, cols",
    ),
    (
        {"n_rows": 2, "n_cols": 2, "rectangles": [RECT, RECT_1, {"color": 2, "rows": [1]}]},
        ["validate"],
        "rectangle objects need color, rows, cols",
    ),
    (
        {"n_rows": 0, "n_cols": 2, "rectangles": [RECT, EMPTY_ROWS]},
        ["validate"],
        "bad rectangle: rectangle sides must be nonempty",
    ),
    (
        {"k": 2, "n": 2, "pairs": [{"parts": [0, 1], "rectangles": 5}]},
        ["validate"],
        "bad k-partite cover: 'int' object is not iterable",
    ),
    (
        {"k": 2, "n": 2, "pairs": [{"parts": [0, 1], "rectangles": [RECT, RECT_1, 7]}]},
        ["detect", "--p", "1"],
        "rectangle objects need color, rows, cols",
    ),
    (
        {"k": 2, "n": 0, "pairs": [{"parts": [0, 1], "rectangles": [RECT, EMPTY_ROWS]}]},
        ["validate"],
        "bad rectangle: rectangle sides must be nonempty",
    ),
    # input that opens with [ is JSON, not matrix text, and must be an object
    ([], ["validate"], "JSON input must be an object: a cover, k-partite cover, or clique family"),
]


@pytest.mark.parametrize(
    "obj, argv, message",
    BAD_INPUTS,
    ids=[f"obj{i}-argv{i}" for i in range(len(BAD_INPUTS))],  # one id per case, by index
)
def test_non_integer_ids_and_sizes_are_data_errors(monkeypatch, capsys, obj, argv, message):
    feed(monkeypatch, json.dumps(obj))
    assert run(argv) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


def test_a_bad_index_is_named_in_input_order_under_any_hash_seed(tmp_path):
    # a set orders strings by their hash, which differs per process; the
    # first bad index as given is named, so every seed prints one line
    path = tmp_path / "strings.json"
    rect = {"color": 0, "rows": ["a", "b", "c"], "cols": [0]}
    path.write_text(json.dumps({"n_rows": 2, "n_cols": 2, "rectangles": [rect]}))
    errs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "shufflecover", "validate", "--in", str(path)],
            env=dict(CHILD_ENV, PYTHONHASHSEED=seed), capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (65, ""), proc.stderr
        errs.add(proc.stderr)
    assert errs == {"input error: bad rectangle: indices must be non-negative integers, got 'a'\n"}


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a":' * 200_000], ids=["arrays", "objects"])
@pytest.mark.parametrize("argv", [["validate"], ["detect", "--p", "2"], ["superimposed", "--t", "1"]])
def test_json_nested_too_deep_is_a_data_error(monkeypatch, capsys, text, argv):
    feed(monkeypatch, text)
    assert run(argv) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: JSON nested deeper than the interpreter allows\n"


def _capped_memory() -> None:
    """Run in a child before it starts: 1.5 GB of address space at most."""
    import resource

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 1_500_000_000 if hard == resource.RLIM_INFINITY else min(hard, 1_500_000_000)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


@pytest.mark.skipif(sys.platform == "win32", reason="no address-space limit to set")
@pytest.mark.parametrize("n_cols", [10**11, 10**30])
def test_a_declared_grid_costs_nothing_until_a_rectangle_reaches_it(tmp_path, n_cols):
    # a mask of every column would take 12.5 GB at 10**11 and cannot be
    # built at 10**30; the first gap is found without one, in capped memory
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n_rows": 1, "n_cols": n_cols, "rectangles": []}))
    proc = subprocess.run(
        [sys.executable, "-m", "shufflecover", "validate", "--in", str(path)],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60, preexec_fn=_capped_memory,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout == '{"kind": "coverage", "row": 0, "col": 0}\n'


@pytest.mark.parametrize("bad", ["-1", "2.5", "True"])
@pytest.mark.parametrize("pos", [0, 150, 299])
def test_bad_value_in_long_row_is_data_error(monkeypatch, capsys, bad, pos):
    row = [str(c) for c in range(300)]
    row[pos] = bad
    feed(monkeypatch, f"1 300\n{' '.join(row)}\n")
    assert run(["validate"]) == 65
    err = capsys.readouterr().err
    if bad == "-1":  # parses as an int, so the matrix refuses it
        assert err == "input error: color ids must be non-negative integers, got -1\n"
    else:
        assert err.startswith("input error: bad matrix row: ")
    rows = list(range(1000, 1300))
    rows[pos] = json.loads(bad.lower())
    rect = {"color": 0, "rows": rows, "cols": [0]}
    feed(monkeypatch, json.dumps({"n_rows": 1300, "n_cols": 1, "rectangles": [rect]}))
    assert run(["validate"]) == 65
    expected = f"indices must be non-negative integers, got {rows[pos]!r}"
    assert capsys.readouterr().err == f"input error: bad rectangle: {expected}\n"


def test_detect_none_and_witness(monkeypatch, capsys):
    feed(monkeypatch, GOLDEN_TEXT)
    assert run(["detect", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "none"
    feed(monkeypatch, GOLDEN_TEXT)
    assert run(["detect", "--p", "1", "--mode", "brute"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"kind": "witness", "color": 1, "rows": [0], "cols": [0]}


def test_detect_rejects_invalid_matrix_in_fast_mode(monkeypatch, capsys):
    feed(monkeypatch, "2 2\n1 2\n2 1\n")
    assert run(["detect", "--p", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "shuffle"


def test_generate_json_and_detect_on_a_matrix_build_no_cover(monkeypatch, capsys):
    # what these commands printed when each of them built the whole cover
    json_sha256 = "93ccbaeb1e21791ff395e3604ebc53bafc48437eef4f684a972d9a0576c5b575"
    witness = '{"kind": "witness", "color": 1, "rows": [0], "cols": [0]}\n'

    def build_cover(self):
        raise AssertionError("a RectangleCover was built")

    monkeypatch.setattr(core.RectangleCover, "__post_init__", build_cover)
    assert run(["generate", "--kind", "recursive", "--k", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha256
    text = write_matrix(construct_recursive_matrix(5))
    for p, expected in (("2", "none\n"), ("1", witness)):
        feed(monkeypatch, text)
        assert run(["detect", "--p", p]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("n, m, p", [(8, 5, 2), (9, 6, 2), (12, 4, 3), (10, 4, 4), (6, 2, 4)])
def test_generate_circulant_pipes_into_validate_and_detect(monkeypatch, capsys, n, m, p):
    # a certificate that the cell (n, m, p) is SAT, in either format
    for fmt in ("matrix", "json"):
        argv = ["generate", "--kind", "circulant", "--n", str(n), "--m", str(m), "--p", str(p)]
        assert run([*argv, "--format", fmt]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"{n} {n}\n" if fmt == "matrix" else "{")
        feed(monkeypatch, text)
        assert run(["validate", "--max-local", str(m)]) == 0
        assert capsys.readouterr() == ("ok\n", "")
        for mode in ("fast", "brute"):
            feed(monkeypatch, text)
            assert run(["detect", "--p", str(p), "--mode", mode]) == 0
            assert capsys.readouterr() == ("none\n", "")


def test_generate_circulant_json_is_the_matrix_cover(capsys):
    # JSON is emitted from the rectangles, byte for byte as from their matrix
    for n in range(1, 13):
        for m in range(1, n + 1):
            for p in range(guaranteed_p(n, m) + 1, n + 2):
                argv = ["generate", "--kind", "circulant", "--n", str(n), "--m", str(m),
                        "--p", str(p), "--format", "json"]
                assert run(argv) == 0
                cover = construct_block_circulant(n, m, p)
                want = formats.cover_to_obj(core.rectangles_to_matrix(cover))
                assert capsys.readouterr().out == json.dumps(want) + "\n", (n, m, p)


def test_detect_kpartite_two_colors(monkeypatch, capsys):
    run(["generate", "--kind", "kpartite", "--n", "4", "--m", "2", "--k", "3"])
    text = capsys.readouterr().out
    feed(monkeypatch, text)
    assert run(["detect", "--p", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "kpartite_witness" and len(obj["parts"]) == 3
    feed(monkeypatch, text)
    assert run(["detect", "--p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_detect_kpartite_three_colors_fast_matches_brute(monkeypatch, capsys):
    run(["generate", "--kind", "kpartite", "--n", "6", "--m", "3", "--k", "3"])
    text = capsys.readouterr().out
    for p in ("1", "2", "3"):
        outs = []
        for mode in ("fast", "brute"):
            feed(monkeypatch, text)
            assert run(["detect", "--p", p, "--mode", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        if p == "3":  # above ceil(6/3) the mod-3 construction avoids it
            assert outs[0] == "none\n"
        else:
            assert json.loads(outs[0])["kind"] == "kpartite_witness"


def test_detect_kpartite_coverage_gap(monkeypatch, capsys):
    # parts 0 and 2 share no edge, so their first pair is reported
    cover = {"k": 3, "n": 2, "pairs": [
        {"parts": [0, 1], "rectangles": [{"color": 0, "rows": [0, 1], "cols": [0, 1]}]}]}
    feed(monkeypatch, json.dumps(cover))
    assert run(["detect", "--p", "1"]) == 2
    assert capsys.readouterr().out == (
        '{"kind": "kpartite_coverage", "part_a": 0, "part_b": 2, "row": 0, "col": 0}\n')


def test_detect_guard_exit_code(monkeypatch):
    big = write_matrix(construct_recursive_matrix(5))  # 32 > brute max_n
    feed(monkeypatch, big)
    assert run(["detect", "--p", "2", "--mode", "brute"]) == 70


def test_bound_json(capsys):
    assert run(["bound", "--n", "9", "--m", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"guaranteed_p": 3, "avoidance_threshold": 3}
    assert run(["bound", "--n", "5", "--m", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"guaranteed_p": 3, "avoidance_threshold": 3}
    # the same answer through __main__ in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "shufflecover", "bound", "--n", "9", "--m", "3"],
        env=CHILD_ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"guaranteed_p": 3, "avoidance_threshold": 3}


def test_search_exit_codes(capsys, monkeypatch):
    assert run(["search", "--n", "2", "--m", "2", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "SAT"
    assert run(["search", "--n", "3", "--m", "2", "--p", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "UNSAT"
    monkeypatch.setenv("RAMSEY_GUARD_NODES", "5")
    assert run(["search", "--n", "7", "--m", "3", "--p", "3"]) == 4
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "INCONCLUSIVE" and obj["witness"] is None


def test_search_stats_are_the_search_stats_fields(capsys):
    # (7,3,3) goes through the DFS, so its stats hold prunes
    assert run(["search", "--n", "7", "--m", "3", "--p", "3"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert list(stats) == [f.name for f in dataclasses.fields(SearchStats)]
    assert stats["prunes"]


def test_search_witness_is_reusable_json(monkeypatch, capsys):
    run(["search", "--n", "4", "--m", "3", "--p", "2"])
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "SAT"
    # the witness is a loadable cover: feed it back through validate
    feed(monkeypatch, json.dumps(obj["witness"]))
    assert run(["validate", "--max-local", "3"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_bad_guard_env_is_usage_error(monkeypatch, capsys):
    # plain ASCII digits only, as in matrix text: int() would take the
    # sign, underscore and spaces of " +5_0 " and the Arabic-Indic five
    for raw in ("not-a-number", "0", "000", "", " +5_0 ", "+5", "-5", "5_0", " 5", "\u0665"):
        monkeypatch.setenv("RAMSEY_GUARD_NODES", raw)
        assert run(["search", "--n", "2", "--m", "2", "--p", "2"]) == 64, raw
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: "), raw
    # leading zeros are plain digits: (7,3,3), SAT after 23 nodes, is
    # INCONCLUSIVE under a budget of 005
    monkeypatch.setenv("RAMSEY_GUARD_NODES", "005")
    assert run(["search", "--n", "7", "--m", "3", "--p", "3"]) == 4


def test_superimposed_frozen_values(monkeypatch, capsys):
    feed(monkeypatch, FAMILY_TEXT)
    assert run(["superimposed", "--t", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["bound"] == 5 and obj["s_t"] == 5
    assert obj["witness"]["kind"] == "superimposed_witness"


def test_superimposed_wrong_input_kind(monkeypatch):
    feed(monkeypatch, GOLDEN_TEXT)
    assert run(["superimposed", "--t", "1"]) == 65
    # and the other way round: a clique family is not a coloring
    feed(monkeypatch, FAMILY_TEXT)
    assert run(["validate"]) == 65
    feed(monkeypatch, FAMILY_TEXT)
    assert run(["detect", "--p", "1"]) == 65


def test_superimposed_bad_t_is_usage_error(monkeypatch):
    fam = {"n_vertices": 2, "cliques": [{"color": 0, "vertices": [0]}]}
    feed(monkeypatch, json.dumps(fam))
    assert run(["superimposed", "--t", "5"]) == 64


def test_table_streams_csv(capsys):
    assert run(["table", "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,m,p,regime,verdict,nodes,millis"
    assert len(lines) == 1 + 2 * 2 * 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] in {"guaranteed", "avoidable", "open"}
        assert fields[4] in {"SAT", "UNSAT", "INCONCLUSIVE"}


def test_table_limits_below_one_are_usage_errors(capsys):
    # checked before the CSV header is printed
    for limits in (["--n-max", "0"], ["--n-max", "-3"], ["--n-max", "2", "--m-max", "0"],
                   ["--n-max", "2", "--p-max", "0"], ["--n-max", "2", "--m-max", "-1"],
                   ["--n-max", "2", "--timeout-sec", "0"], ["--n-max", "2", "--timeout-sec", "nan"],
                   ["--n-max", "2", "--timeout-sec", "inf"]):
        assert run(["table", *limits]) == 64
        assert capsys.readouterr().out == ""


def test_search_timeout_not_finite_positive_is_usage_error(capsys):
    # a NaN deadline never passes, so it would silently lift the budget
    for value in ("nan", "inf", "0", "-1"):
        assert run(["search", "--n", "2", "--m", "2", "--p", "2", "--timeout-sec", value]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeout must be a finite positive number" in captured.err, value


def test_module_entry_point_pipe():
    gen = subprocess.run(
        [sys.executable, "-m", "shufflecover", "generate", "--kind", "recursive", "--k", "2"],
        capture_output=True, text=True, check=True, env=CHILD_ENV,
    )
    val = subprocess.run(
        [sys.executable, "-m", "shufflecover", "validate", "--in", "-"],
        input=gen.stdout, capture_output=True, text=True, env=CHILD_ENV,
    )
    assert val.returncode == 0 and val.stdout.strip() == "ok"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_pipe_ends_the_program_quietly():
    # a reader that stops early (``table --n-max 9 | head -1``) is not an
    # input error: the program ends by SIGPIPE, as any filter does, with
    # nothing on stderr
    with subprocess.Popen(
        [sys.executable, "-m", "shufflecover", "table", "--n-max", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
    ) as proc:
        assert proc.stdout.readline() == "n,m,p,regime,verdict,nodes,millis\n"
        proc.stdout.close()
        proc.wait(timeout=60)
        assert proc.stderr.read() == ""
    assert proc.returncode == -signal.SIGPIPE


def test_console_script_detect():
    # run the [project.scripts] target the way an installed wrapper would,
    # so the test needs no pip install
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # a text parse, since tomllib is not in the stdlib before Python 3.11
    scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^shufflecover\s*=\s*"([^"]+)"', scripts, re.M).group(1)
    module, func = target.split(":")
    wrapper = f"from {module} import {func}; {func}()"
    det = subprocess.run(
        [sys.executable, "-c", wrapper, "detect", "--p", "2", "--mode", "brute", "--in", "-"],
        input=GOLDEN_TEXT, capture_output=True, text=True, env=CHILD_ENV,
    )
    assert det.returncode == 0 and det.stdout.strip() == "none"


# one call of every subcommand, then a usage error and a data error
REPEATED_CALLS = [
    (["generate", "--kind", "recursive", "--k", "3"], ""),
    (["generate", "--kind", "modm", "--n", "6", "--m", "2", "--format", "json"], ""),
    (["validate", "--max-local", "3"], GOLDEN_TEXT),
    (["detect", "--p", "1"], GOLDEN_TEXT),
    (["bound", "--n", "9", "--m", "3"], ""),
    (["search", "--n", "4", "--m", "3", "--p", "2"], ""),
    (["superimposed", "--t", "1"], FAMILY_TEXT),
    (["table", "--n-max", "2"], ""),
    (["generate", "--kind", "modm", "--n", "5"], ""),
    (["validate"], "2 2\n1 2\n"),
]


def test_repeated_runs_build_the_parser_once(monkeypatch, capsys):
    builds = []

    class CountingParser(cli._Parser):
        def add_subparsers(self, **kwargs):  # called once per parser build
            builds.append(self)
            return super().add_subparsers(**kwargs)

    def one_round():
        results = []
        for argv, stdin in REPEATED_CALLS:
            feed(monkeypatch, stdin)
            code = run(argv)
            out = capsys.readouterr().out
            # the search stats and table rows carry run times
            out = re.sub(r'"millis": [0-9.e+-]+', '"millis": _', out)
            results.append((code, re.sub(r",\d+$", ",_", out, flags=re.M)))
        return results

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    try:
        first, second = one_round(), one_round()
    finally:
        cli._build_parser.cache_clear()
    assert [code for code, _ in first] == [0, 0, 0, 0, 0, 0, 0, 0, 64, 65]
    assert second == first
    assert len(builds) == 1


KPARTITE_TEXT = json.dumps(
    {"k": 3, "n": 1, "pairs": [{"parts": [0, 1], "rectangles": [RECT]}]}
)
# (argv, stdin, exit code, whether the command is a paused data command);
# every exit path of the four data commands, then search and table
GC_CALLS = [
    (["generate", "--kind", "recursive", "--k", "3"], "", 0, True),
    (["generate", "--kind", "modm", "--n", "5"], "", 64, True),
    (["validate"], GOLDEN_TEXT, 0, True),
    (["validate"], "2 2\n1 2\n2 1\n", 2, True),
    (["validate", "--max-local", "2"], KPARTITE_TEXT, 64, True),
    (["validate"], "", 65, True),
    (["detect", "--p", "2"], GOLDEN_TEXT, 0, True),
    (["detect", "--p", "1"], "2 2\n1 2\n2 1\n", 2, True),
    (["detect", "--p", "2", "--mode", "brute"], write_matrix(construct_recursive_matrix(5)), 70,
     True),
    (["superimposed", "--t", "1"], FAMILY_TEXT, 0, True),
    (["superimposed", "--t", "1"], GOLDEN_TEXT, 65, True),
    (["search", "--n", "4", "--m", "3", "--p", "2"], "", 0, False),
    (["table", "--n-max", "2"], "", 0, False),
]


def test_data_commands_pause_the_gc_and_restore_the_callers_setting(monkeypatch, capsys):
    seen = []

    def spy(name):
        fn = getattr(cli, name)

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)

    # the data commands read their input or write their output through
    # these; search and table call these
    for name in ("_read_input", "_write_output", "search_avoiding", "threshold_table"):
        spy(name)
    enabled = gc.isenabled()
    try:
        for setting in (True, False):
            for argv, stdin, code, paused in GC_CALLS:
                (gc.enable if setting else gc.disable)()
                seen.clear()
                feed(monkeypatch, stdin)
                assert run(argv) == code, argv
                capsys.readouterr()
                assert gc.isenabled() is setting, argv
                # the missing --m is refused before anything is written
                expected = [] if code == 64 and argv[0] == "generate" else [not paused and setting]
                assert seen == expected, argv
    finally:
        (gc.enable if enabled else gc.disable)()


def test_large_pipe_output_is_unchanged(monkeypatch, capsys):
    # sha256 over the exit codes and stdout of a fixed generate | validate |
    # detect pipe on the largest matrices, as printed before rows were
    # shared, color classes returned tuples and the GC was paused per command
    digest = hashlib.sha256()

    def step(argv, text=""):
        feed(monkeypatch, text)
        code = run(argv)
        out = capsys.readouterr().out
        digest.update(f"{code}\n{out}".encode())
        return out

    recursive = ["generate", "--kind", "recursive", "--k", "7"]
    inputs = [
        (step(recursive), 96),  # 3 * 2^(k-2)-local
        (step(recursive + ["--format", "json"]), 96),
        (step(["generate", "--kind", "modm", "--n", "256", "--m", "5"]), 5),
    ]
    for text, width in inputs:
        for limit in (width - 1, width):
            step(["validate", "--max-local", str(limit)], text)
        for p in ("1", "2", "3"):
            step(["detect", "--p", p], text)
    circulant = ["generate", "--kind", "circulant", "--n", "9", "--m", "6", "--p", "2"]
    step(circulant)
    step(circulant + ["--format", "json"])
    assert digest.hexdigest() == (
        "cd978d5caa8792195fdeb6a6ad52d3d93d6519ed1e4b62478034afd8075f36de"
    )
