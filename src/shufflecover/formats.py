"""Text and JSON codecs for the on-disk formats.

Matrix text: first line ``n_rows n_cols``, then one line per row of
space-separated color ids, all plain ASCII decimals.  Lines end at a
newline only, and a trailing carriage return is allowed.  Everything else
is JSON with stable key order; violations and witnesses carry a ``kind``
discriminator.

The codecs leave the cyclic garbage collector alone; the CLI pauses it
around each data command as a whole.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from operator import itemgetter
from typing import Any

from .core import CliqueFamily, ColorMatrix, KPartiteCover, Rectangle, RectangleCover, color_classes


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


def _ints(line: str) -> tuple[int, ...]:
    """The space-separated ints of one line.  ``int`` alone would also take
    digit-group underscores, a plus sign and non-ASCII digits or spaces;
    those raise ``ValueError`` here."""
    if not line.isascii() or "_" in line or "+" in line:
        raise ValueError(line)
    return tuple(map(int, line.split()))


def parse_matrix(text: str) -> ColorMatrix:
    # lines end at "\n" only (a trailing "\r" is whitespace); a line with
    # a non-ASCII character is never blank, so _ints refuses it
    lines = [line for line in text.split("\n") if not line.isascii() or line.strip()]
    if not lines:
        raise FormatError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("matrix header must be 'n_rows n_cols'")
    try:
        n_rows, n_cols = _ints(lines[0])
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
                row = _ints(line)
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


def rectangle_to_obj(rect: Rectangle) -> dict[str, Any]:
    return {"color": rect.color, "rows": sorted(rect.rows), "cols": sorted(rect.cols)}


@_loader("rectangle", "rectangle", "color", "rows", "cols")
def _rectangle_from_obj(obj: dict) -> Rectangle:
    return Rectangle(color=obj["color"], rows=obj["rows"], cols=obj["cols"])


_FIELDS = itemgetter("color", "rows", "cols")


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
    # checked as whole lists; what core refuses is loaded one by one, to word the error
    if type(objs) is list and objs and {*map(type, objs)} == {dict}:
        try:
            colors, rows, cols = zip(*map(_FIELDS, objs))
        except KeyError:
            pass
        else:
            cover = RectangleCover._from_lists(n_rows, n_cols, colors, rows, cols)
            if cover is not None:
                return cover
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
        pairs.append((*parts, list(map(_rectangle_from_obj, entry["rectangles"]))))
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
        vertices = entry["vertices"]  # a missing "vertices" is named before "color"
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


# the key that marks each JSON format, in the order they are tried
_LOADERS = (("rectangles", cover_from_obj), ("pairs", kpartite_from_obj),
            ("cliques", clique_family_from_obj))


def load_instance(text: str):
    """Parse matrix text or any of the JSON formats, deciding by content:
    input whose first non-blank character is ``{`` or ``[`` is JSON, and
    must decode to an object.

    Returns a ColorMatrix, RectangleCover, KPartiteCover, or CliqueFamily.
    """
    stripped = text.lstrip()
    if not stripped:
        raise FormatError("empty input")
    if stripped[0] not in "{[":
        return parse_matrix(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("JSON input must be an object: a cover, k-partite cover, or clique family")
    for key, load in _LOADERS:
        if key in obj:
            return load(obj)
    raise FormatError("unrecognized JSON object (expected a cover, k-partite cover, or clique family)")
