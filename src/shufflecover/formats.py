"""Text and JSON codecs for the on-disk formats.

Matrix text: first line ``n_rows n_cols``, then one line per row of
space-separated color ids.  Everything else is JSON with stable key order;
violations and witnesses carry a ``kind`` discriminator.

The codecs leave the cyclic garbage collector alone; the CLI pauses it
around each data command as a whole (``cli._gc_paused``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import deque
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from .core import (
    INDICES,
    CliqueFamily,
    ColorMatrix,
    KPartiteCover,
    Rectangle,
    RectangleCover,
    check_ints,
    color_classes,
)


class FormatError(ValueError):
    """Input text does not parse as any supported format."""


# ---------------------------------------------------------------------------
# matrix text


def write_matrix(matrix: ColorMatrix) -> str:
    # one C-level format for every row, applied once per distinct row (a
    # mod-m matrix has m of them)
    row_format = " ".join(["%d"] * matrix.n_cols)
    text = {row: row_format % row for row in set(matrix.cells)}
    lines = [f"{matrix.n_rows} {matrix.n_cols}", *map(text.__getitem__, matrix.cells)]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ColorMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("matrix header must be 'n_rows n_cols'")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError(f"bad matrix header: {lines[0]!r}") from exc
    if n_rows < 1 or n_cols < 1:
        raise FormatError("matrix dimensions must be positive")
    if len(lines) != n_rows + 1:
        raise FormatError(f"expected {n_rows} matrix rows, found {len(lines) - 1}")
    rows = []
    parsed: dict[str, tuple[int, ...]] = {}  # each distinct line is parsed once
    for line in lines[1:]:
        row = parsed.get(line)
        if row is None:
            try:
                row = tuple(map(int, line.split()))
            except ValueError as exc:
                raise FormatError(f"bad matrix row: {line!r}") from exc
            if len(row) != n_cols:
                raise FormatError(f"row has {len(row)} entries, expected {n_cols}")
            parsed[line] = row
        rows.append(row)
    try:
        return ColorMatrix(tuple(rows))
    except ValueError as exc:  # a negative color id
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON object builders (plain dicts; callers json.dumps them)


def _loader(what: str, bad: str, *keys: str):
    """Wrap a JSON object builder: anything but a dict holding ``keys`` is
    refused, and what the builder raises becomes a :class:`FormatError`."""
    need, missing = frozenset(keys), f"{what} objects need {', '.join(keys)}"

    def wrap(build):
        @functools.wraps(build)
        def load(obj: Any):
            if not isinstance(obj, dict) or not obj.keys() >= need:
                raise FormatError(missing)
            try:
                return build(obj)
            except FormatError:  # raised by the builder, already worded
                raise
            except (LookupError, TypeError, ValueError) as exc:
                raise FormatError(f"bad {bad}: {exc}") from exc
        return load
    return wrap


def _check_merged(kept: int, *raw: list) -> None:
    # A true next to a 1 merges into it as a set member (True == 1), so when
    # the sets keep fewer than the ``raw`` lists hold, the lists are checked;
    # a bool that survives as itself the constructor refuses.
    if kept < sum(map(len, raw)):
        check_ints(INDICES, *chain(*raw))


def rectangle_to_obj(rect: Rectangle) -> dict[str, Any]:
    return {"color": rect.color, "rows": sorted(rect.rows), "cols": sorted(rect.cols)}


@_loader("rectangle", "rectangle", "color", "rows", "cols")
def _rectangle_from_obj(obj: dict) -> Rectangle:
    rows, cols = obj["rows"], obj["cols"]
    rect = Rectangle(color=obj["color"], rows=frozenset(rows), cols=frozenset(cols))
    _check_merged(len(rect.rows) + len(rect.cols), rows, cols)
    return rect


_FIELDS = itemgetter("color", "rows", "cols")


def _checked_rectangles(
    objs: Any, n_rows: Any, n_cols: Any, distinct: bool
) -> tuple[Rectangle, ...] | None:
    """The rectangles of a JSON rectangle list, checked as whole lists at C
    speed, or None when any check fails (or the list is empty), for the
    caller to load rectangle by rectangle and word the error.

    Every entry must be a dict holding color, rows and cols; every side a
    nonempty list; every color and index an exact int (a bool or float is
    refused) of at least 0, the colors distinct if ``distinct``; and
    ``n_rows`` and ``n_cols`` exact ints above every row and column index
    (so at least 1).  That is all the rectangle and cover constructors
    check, so a list that passes is built without them.
    """
    if type(objs) is not list or not objs or {*map(type, objs)} != {dict}:
        return None
    if {type(n_rows), type(n_cols)} != {int}:
        return None
    try:
        colors, rows, cols = zip(*map(_FIELDS, objs))
    except KeyError:
        return None
    if {*map(type, colors)} != {int} or min(colors) < 0:
        return None
    if distinct and len({*colors}) < len(colors):
        return None
    for sides, bound in ((rows, n_rows), (cols, n_cols)):
        if {*map(type, sides)} != {list} or not all(sides):
            return None
        flat = [*chain.from_iterable(sides)]
        if {*map(type, flat)} != {int} or min(flat) < 0 or max(flat) >= bound:
            return None
    # built as the frozen dataclass's own __init__ builds them, but with
    # C-level maps over whole lists instead of one Python call per rectangle
    rects = tuple(map(object.__new__, repeat(Rectangle, len(colors))))
    for name, values in (("color", colors), ("rows", map(frozenset, rows)),
                         ("cols", map(frozenset, cols))):
        deque(map(object.__setattr__, rects, repeat(name), values), maxlen=0)
    return rects


def cover_to_obj(instance: ColorMatrix | RectangleCover) -> dict[str, Any]:
    """A cover as a JSON object: its sizes and one rectangle object per
    color class, in :func:`~shufflecover.core.color_classes` order.

    A shuffle-preserved matrix gives the object of its rectangle cover,
    read off the matrix without building one; any other matrix raises
    :class:`~shufflecover.core.NotShufflePreserved`.
    """
    return {
        "n_rows": instance.n_rows,
        "n_cols": instance.n_cols,
        "rectangles": [
            {"color": color, "rows": sorted(rows), "cols": sorted(cols)}
            for color, rows, cols in color_classes(instance)
        ],
    }


@_loader("cover", "cover", "n_rows", "n_cols", "rectangles")
def cover_from_obj(obj: dict) -> RectangleCover:
    n_rows, n_cols, objs = obj["n_rows"], obj["n_cols"], obj["rectangles"]
    rects = _checked_rectangles(objs, n_rows, n_cols, distinct=True)
    if rects is not None:
        return RectangleCover._checked(n_rows, n_cols, rects)
    return RectangleCover(
        n_rows=n_rows, n_cols=n_cols, rectangles=list(map(_rectangle_from_obj, objs))
    )


def kpartite_to_obj(cover: KPartiteCover) -> dict[str, Any]:
    return {
        "k": cover.k,
        "n": cover.n,
        "pairs": [
            {"parts": [a, b], "rectangles": [rectangle_to_obj(r) for r in rects]}
            for a, b, rects in cover.pairs
        ],
    }


@_loader("k-partite", "k-partite cover", "k", "n", "pairs")
def kpartite_from_obj(obj: dict) -> KPartiteCover:
    n, pairs = obj["n"], []
    for entry in obj["pairs"]:
        parts = entry["parts"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise FormatError(f"k-partite parts must be a pair of part ids, got {parts!r}")
        objs = entry["rectangles"]
        rects = _checked_rectangles(objs, n, n, distinct=False)
        if rects is None:
            rects = list(map(_rectangle_from_obj, objs))
        pairs.append((*parts, rects))
    return KPartiteCover(k=obj["k"], n=n, pairs=tuple(pairs))


def clique_family_to_obj(family: CliqueFamily) -> dict[str, Any]:
    return {
        "n_vertices": family.n_vertices,
        "cliques": [
            {"color": color, "vertices": sorted(vertices)} for color, vertices in family.cliques
        ],
    }


@_loader("clique family", "clique family", "n_vertices", "cliques")
def clique_family_from_obj(obj: dict) -> CliqueFamily:
    cliques = []
    for entry in obj["cliques"]:
        raw = entry["vertices"]
        vertices = frozenset(raw)
        _check_merged(len(vertices), raw)
        cliques.append((entry["color"], vertices))
    return CliqueFamily(n_vertices=obj["n_vertices"], cliques=tuple(cliques))


def _plain(value: Any) -> Any:
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _tagged_to_obj(obj: Any) -> dict[str, Any]:
    """A violation or witness as ``{"kind": ..., **fields}``, in field order,
    with sets as sorted lists and tuples as lists."""
    fields = {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return {"kind": obj.kind, **fields}


violation_to_obj = witness_to_obj = _tagged_to_obj


# ---------------------------------------------------------------------------
# sniffing loader


def load_instance(text: str):
    """Parse matrix text or any of the JSON formats, deciding by content.

    Returns a ColorMatrix, RectangleCover, KPartiteCover, or CliqueFamily.
    """
    stripped = text.lstrip()
    if not stripped:
        raise FormatError("empty input")
    if stripped[0] != "{":
        return parse_matrix(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if "rectangles" in obj:
        return cover_from_obj(obj)
    if "pairs" in obj:
        return kpartite_from_obj(obj)
    if "cliques" in obj:
        return clique_family_from_obj(obj)
    raise FormatError("unrecognized JSON object (expected a cover, k-partite cover, or clique family)")
