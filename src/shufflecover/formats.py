"""Text and JSON codecs for the on-disk formats.

Matrix text: first line ``n_rows n_cols``, then one line per row of
space-separated color ids.  Everything else is JSON with stable key order;
violations and witnesses carry a ``kind`` discriminator.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from itertools import chain
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


_RECTANGLE_KEYS = frozenset(("color", "rows", "cols"))


def _rectangles_from_objs(objs: Any) -> list[Rectangle]:
    """Build the rectangles of one JSON rectangle list, in order.

    An entry that is not a dict holding color, rows and cols, or that the
    rectangle checks refuse, raises a :class:`FormatError` naming the
    rectangle.  Anything else, such as ``objs`` not being a list, is left
    to the loader of the enclosing object.
    """
    rects = []
    for obj in objs:
        if not isinstance(obj, dict) or not obj.keys() >= _RECTANGLE_KEYS:
            raise FormatError("rectangle objects need color, rows, cols")
        rows, cols = obj["rows"], obj["cols"]
        try:
            rect = Rectangle(color=obj["color"], rows=frozenset(rows), cols=frozenset(cols))
            _check_merged(len(rect.rows) + len(rect.cols), rows, cols)
        except (LookupError, TypeError, ValueError) as exc:
            raise FormatError(f"bad rectangle: {exc}") from exc
        rects.append(rect)
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
    return RectangleCover(
        n_rows=obj["n_rows"],
        n_cols=obj["n_cols"],
        rectangles=_rectangles_from_objs(obj["rectangles"]),
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
    pairs = []
    for entry in obj["pairs"]:
        parts = entry["parts"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise FormatError(f"k-partite parts must be a pair of part ids, got {parts!r}")
        pairs.append((*parts, _rectangles_from_objs(entry["rectangles"])))
    return KPartiteCover(k=obj["k"], n=obj["n"], pairs=tuple(pairs))


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
