"""Command-line interface.

Subcommands: generate, validate, detect, bound, search, superimposed,
table.  Data goes to stdout, diagnostics to stderr.  Exit codes:

* 0: success (including SAT, a found witness, or a clean validation)
* 1: search verdict UNSAT
* 2: validation found a violation (its JSON is printed to stdout)
* 4: search verdict INCONCLUSIVE
* 64: usage error
* 65: malformed or unusable input file
* 70: an internal size guard refused the computation
* 74: the output could not be written

Run as a program, it ends by SIGPIPE, quietly, when the reader of its
stdout closes the pipe early (``table ... | head``), as any filter does;
``run`` leaves the signal as its caller set it.

``RAMSEY_GUARD_NODES`` overrides the default search node budget.

The data commands (generate, validate, detect, superimposed) run with the
cyclic garbage collector paused, and turn it back on when they return;
search and table run with the caller's setting.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import signal
import sys
from typing import Callable

from . import formats
from .core import (
    CliqueFamily,
    ColorMatrix,
    KPartiteCover,
    NotShufflePreserved,
    RectangleCover,
    avoidance_threshold,
    check_coverage,
    check_ints,
    guaranteed_p,
    kpartite_violation,
    local_profile,
    locality_violation,
    matrix_local_profile,
    rectangles_to_matrix,
    validate_shuffle_preserved,
)
from .constructions import (
    construct_block_circulant,
    construct_kpartite_avoiding,
    construct_mod_m,
    construct_recursive_matrix,
)
from .detect import (
    InstanceTooLarge,
    TooManySubsets,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    find_mono_kpartite,
    find_mono_kpartite_brute,
    max_superimposed,
    superimposed_bound,
)
from .search import INCONCLUSIVE, SAT, UNSAT, SearchParams, search_avoiding, threshold_table
from .search import CSV_HEADER, table_row_csv

EX_OK = 0
EX_UNSAT = 1
EX_VIOLATION = 2
EX_INCONCLUSIVE = 4
EX_USAGE = 64
EX_DATAERR = 65
EX_GUARD = 70
EX_IOERR = 74

_DEFAULT_NODE_LIMIT = 10_000_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; remap to the documented 64."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls, and
    # building the tree costs more than most commands' own work.
    parser = _Parser(prog="shufflecover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit one of the deterministic constructions")
    gen.add_argument("--kind", required=True, choices=list(_KINDS))
    for flag in dict.fromkeys(f for flags, *_ in _KINDS.values() for f in flags):
        gen.add_argument(f"--{flag}", type=int)
    # matrix kinds default to matrix text; kpartite has no matrix form and
    # defaults to json
    gen.add_argument("--format", dest="fmt", choices=["matrix", "json"], default=None)
    gen.add_argument("--out", default="-")
    gen.set_defaults(handler=_cmd_generate, paused=True)

    val = sub.add_parser("validate", help="check shuffle-preservation (and coverage for covers)")
    val.add_argument("--in", dest="path", default="-")
    val.add_argument("--max-local", type=int, default=None)
    val.set_defaults(handler=_cmd_validate, paused=True)

    det = sub.add_parser("detect", help="find a monochromatic complete subgraph")
    det.add_argument("--in", dest="path", default="-")
    det.add_argument("--p", type=int, required=True)
    det.add_argument("--mode", choices=["fast", "brute"], default="fast")
    det.set_defaults(handler=_cmd_detect, paused=True)

    bound = sub.add_parser("bound", help="closed-form guarantee and avoidance bounds")
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--m", type=int, required=True)
    bound.set_defaults(handler=_cmd_bound, paused=False)

    sea = sub.add_parser("search", help="decide one avoidance cell (n, m, p)")
    sea.add_argument("--n", type=int, required=True)
    sea.add_argument("--m", type=int, required=True)
    sea.add_argument("--p", type=int, required=True)
    sea.add_argument("--timeout-sec", type=float, default=None)
    sea.set_defaults(handler=_cmd_search, paused=False)

    sup = sub.add_parser("superimposed", help="t-superimposed clique bound and exact best subset")
    sup.add_argument("--in", dest="path", default="-")
    sup.add_argument("--t", type=int, required=True)
    sup.set_defaults(handler=_cmd_superimposed, paused=True)

    tab = sub.add_parser("table", help="stream the threshold table as CSV")
    tab.add_argument("--n-max", type=int, required=True)
    tab.add_argument("--m-max", type=int, default=None)
    tab.add_argument("--p-max", type=int, default=None)
    tab.add_argument("--timeout-sec", type=float, default=None)
    tab.set_defaults(handler=_cmd_table, paused=False)

    return parser


def _read_input(path: str) -> str:
    # a file that is missing, a directory or not UTF-8 is unusable input
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise formats.FormatError(str(exc)) from exc


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_line(obj) -> str:
    # the objects dumped here are plain dicts and lists, never cyclic
    return json.dumps(obj, check_circular=False) + "\n"


def _emit_json(obj) -> None:
    sys.stdout.write(_json_line(obj))


def _node_limit() -> int:
    raw = os.environ.get("RAMSEY_GUARD_NODES")
    if raw is None:
        return _DEFAULT_NODE_LIMIT
    # plain ASCII digits, as in matrix text: int() also takes " +5_0 " and "\u0665"
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"RAMSEY_GUARD_NODES must be an integer, got {raw!r}")
    value = int(raw)
    check_ints("RAMSEY_GUARD_NODES must be positive", value, low=1)
    return value


def _late(fn: Callable) -> Callable:
    """``fn`` called through this module's name for it, looked up per call,
    so a wrapper set on the name later (the benchmark's tracer) sees it."""
    return lambda *args: globals()[fn.__name__](*args)


# Each generate --kind: the options its construction takes, in order, the
# construction, and its matrix form (None: it has none, so JSON only).  The
# block-circulant rectangles are disjoint, cover the grid and are in color
# order, so JSON takes them as they are and only the matrix needs flattening.
_KINDS = {
    "modm": (("n", "m"), _late(construct_mod_m), lambda matrix: matrix),
    "recursive": (("k",), _late(construct_recursive_matrix), lambda matrix: matrix),
    "kpartite": (("n", "m", "k"), _late(construct_kpartite_avoiding), None),
    "circulant": (("n", "m", "p"), _late(construct_block_circulant), _late(rectangles_to_matrix)),
}


# What validate and detect run on each kind of coloring: its first violation,
# its color counts per vertex for --max-local (None: the option is refused),
# and its detector for each --mode.
_BICLIQUE = {"fast": _late(find_mono_biclique_fast), "brute": _late(find_mono_biclique_brute)}
_COLORINGS = {
    ColorMatrix: (_late(validate_shuffle_preserved), _late(matrix_local_profile), _BICLIQUE),
    RectangleCover: (_late(check_coverage), _late(local_profile), _BICLIQUE),
    KPartiteCover: (_late(kpartite_violation), None,
                    {"fast": _late(find_mono_kpartite), "brute": _late(find_mono_kpartite_brute)}),
}


def _cmd_generate(args) -> int:
    flags, build, to_matrix = _KINDS[args.kind]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        names = [f"--{flag}" for flag in flags]
        listed = " and ".join(names) if len(names) < 3 else f"{', '.join(names[:-1])}, and {names[-1]}"
        raise ValueError(f"--kind {args.kind} requires {listed}")
    if to_matrix is None and args.fmt == "matrix":
        raise ValueError("k-partite covers have no matrix form; use --format json")
    instance = build(*values)
    if to_matrix is None:
        text = _json_line(formats.kpartite_to_obj(instance))
    elif args.fmt == "json":
        text = _json_line(formats.cover_to_obj(instance))
    else:
        text = formats.write_matrix(to_matrix(instance))
    _write_output(args.out, text)
    return EX_OK


def _cmd_validate(args) -> int:
    instance = formats.load_instance(_read_input(args.path))
    coloring = _COLORINGS.get(type(instance))
    if coloring is None:
        raise formats.FormatError("clique families are not colorings; nothing to validate")
    check, profile, _ = coloring
    # refused whatever the input holds, so before it is validated
    if args.max_local is not None and profile is None:
        raise ValueError("--max-local applies to bipartite matrices and covers only")
    violation = check(instance)
    # the locality profile is computed only when --max-local asks for it
    if violation is None and args.max_local is not None:
        violation = locality_violation(profile(instance), args.max_local)
    if violation is not None:
        _emit_json(formats.violation_to_obj(violation))
        return EX_VIOLATION
    print("ok")
    return EX_OK


def _cmd_detect(args) -> int:
    instance = formats.load_instance(_read_input(args.path))
    coloring = _COLORINGS.get(type(instance))
    if coloring is None:
        raise formats.FormatError("clique families use the superimposed command")
    _, _, detectors = coloring
    witness = detectors[args.mode](instance, args.p)
    if witness is None:
        print("none")
    else:
        _emit_json(formats.witness_to_obj(witness))
    return EX_OK


def _cmd_bound(args) -> int:
    _emit_json(
        {
            "guaranteed_p": guaranteed_p(args.n, args.m),
            "avoidance_threshold": avoidance_threshold(args.n, args.m),
        }
    )
    return EX_OK


def _cmd_search(args) -> int:
    params = SearchParams(args.n, args.m, args.p, timeout=args.timeout_sec, node_limit=_node_limit())
    outcome = search_avoiding(params)
    _emit_json({
        "verdict": outcome.verdict,
        "witness": formats.cover_to_obj(outcome.witness) if outcome.witness else None,
        # every SearchStats field in order; vars is far cheaper than dataclasses.asdict
        "stats": {**vars(outcome.stats), "millis": round(outcome.stats.millis, 3)},
    })
    return {SAT: EX_OK, UNSAT: EX_UNSAT, INCONCLUSIVE: EX_INCONCLUSIVE}[outcome.verdict]


def _cmd_superimposed(args) -> int:
    instance = formats.load_instance(_read_input(args.path))
    if not isinstance(instance, CliqueFamily):
        raise formats.FormatError("superimposed needs a clique family JSON input")
    bound = superimposed_bound(instance, args.t)
    witness = max_superimposed(instance, args.t)
    _emit_json(
        {
            "bound": bound,
            "s_t": len(witness.vertices),
            "witness": formats.witness_to_obj(witness),
        }
    )
    return EX_OK


def _cmd_table(args) -> int:
    rows = threshold_table(
        args.n_max,
        args.m_max,
        args.p_max,
        timeout_per_cell=args.timeout_sec,
        node_limit=_node_limit(),
    )
    print(CSV_HEADER)
    for row in rows:
        print(table_row_csv(row))
        sys.stdout.flush()
    return EX_OK


def run(argv: list[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # A data command's rows, dicts, frozensets and rectangles form no
        # cycles, so collector passes over them free nothing; the collector
        # comes back on once reference counting has freed them, so the pass
        # then due scans none of them.  Pausing search and table as well
        # slowed the ``table --n-max 5`` benchmark.
        enabled = gc.isenabled()
        if args.paused:
            gc.disable()
        try:
            return args.handler(args)
        finally:
            if enabled:
                gc.enable()
    except formats.FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EX_IOERR
    except NotShufflePreserved as exc:
        _emit_json(formats.violation_to_obj(exc.violation))
        return EX_VIOLATION
    except (InstanceTooLarge, TooManySubsets) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EX_GUARD
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE


def main() -> None:
    # Python ignores SIGPIPE, so a write to a closed pipe would raise an
    # OSError that run() reports as an output error (exit 74)
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
