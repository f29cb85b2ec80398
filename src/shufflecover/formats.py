"""Text and JSON codecs for the on-disk formats.

Matrix text: first line ``n_rows n_cols``, then one line per row of
space-separated color ids.  Everything else is JSON with stable key order;
violations and witnesses carry a ``kind`` discriminator.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .core import INDICES, ColorMatrix, KPartiteCover, Rectangle, RectangleCover, check_ints


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


def rectangle_to_obj(rect: Rectangle) -> dict[str, Any]:
    return {"color": rect.color, "rows": sorted(rect.rows), "cols": sorted(rect.cols)}


def _rectangle_from_obj(obj: Any) -> Rectangle:
    if not isinstance(obj, dict) or not obj.keys() >= {"color", "rows", "cols"}:
        raise FormatError("rectangle objects need color, rows, cols")
    try:
        rows, cols = obj["rows"], obj["cols"]
        rect = Rectangle(color=obj["color"], rows=frozenset(rows), cols=frozenset(cols))
        # A true next to a 1 merges into it as a set member (True == 1), so
        # ids lost to the sets are checked in the raw lists; a bool that
        # survives as itself the constructor has already refused.
        if len(rect.rows) + len(rect.cols) < len(rows) + len(cols):
            check_ints(INDICES, *rows, *cols)
        return rect
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad rectangle: {exc}") from exc


def cover_to_obj(cover: RectangleCover) -> dict[str, Any]:
    return {
        "n_rows": cover.n_rows,
        "n_cols": cover.n_cols,
        "rectangles": [rectangle_to_obj(r) for r in cover.rectangles],
    }


def cover_from_obj(obj: Any) -> RectangleCover:
    if not isinstance(obj, dict) or not {"n_rows", "n_cols", "rectangles"} <= set(obj):
        raise FormatError("cover objects need n_rows, n_cols, rectangles")
    try:
        return RectangleCover(
            n_rows=obj["n_rows"],
            n_cols=obj["n_cols"],
            rectangles=tuple(_rectangle_from_obj(r) for r in obj["rectangles"]),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad cover: {exc}") from exc


def kpartite_to_obj(cover: KPartiteCover) -> dict[str, Any]:
    return {
        "k": cover.k,
        "n": cover.n,
        "pairs": [
            {"parts": [a, b], "rectangles": [rectangle_to_obj(r) for r in rects]}
            for a, b, rects in cover.pairs
        ],
    }


def kpartite_from_obj(obj: Any) -> KPartiteCover:
    if not isinstance(obj, dict) or not {"k", "n", "pairs"} <= set(obj):
        raise FormatError("k-partite objects need k, n, pairs")
    try:
        pairs = []
        for entry in obj["pairs"]:
            parts = entry["parts"]
            if not isinstance(parts, list) or len(parts) != 2:
                raise FormatError(f"k-partite parts must be a pair of part ids, got {parts!r}")
            pairs.append((*parts, tuple(_rectangle_from_obj(r) for r in entry["rectangles"])))
        return KPartiteCover(k=obj["k"], n=obj["n"], pairs=tuple(pairs))
    except (LookupError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad k-partite cover: {exc}") from exc


def clique_family_to_obj(family: "CliqueFamily") -> dict[str, Any]:
    return {
        "n_vertices": family.n_vertices,
        "cliques": [
            {"color": color, "vertices": sorted(vertices)} for color, vertices in family.cliques
        ],
    }


def clique_family_from_obj(obj: Any) -> "CliqueFamily":
    from .detect import CliqueFamily

    if not isinstance(obj, dict) or not {"n_vertices", "cliques"} <= set(obj):
        raise FormatError("clique family objects need n_vertices, cliques")
    try:
        cliques = []
        for entry in obj["cliques"]:
            raw = entry["vertices"]
            vertices = frozenset(raw)
            if len(vertices) < len(raw):  # a true merged into a 1, as for rectangles
                check_ints(INDICES, *raw)
            cliques.append((entry["color"], vertices))
        return CliqueFamily(n_vertices=obj["n_vertices"], cliques=tuple(cliques))
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"bad clique family: {exc}") from exc


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
