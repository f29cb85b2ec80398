"""Core types and validators for shuffle-preserved colorings.

An edge coloring of a complete bipartite multigraph is *shuffle-preserved*
when every color class is closed under swapping endpoints: if (u, v) and
(u', v') both carry color c, then (u, v') and (u', v) do too.  Equivalently,
each color class is a combinatorial rectangle, a row set crossed with a
column set.  That rectangle view is the working representation here: a
simple coloring is a :class:`ColorMatrix`, a multigraph coloring (parallel
edges allowed) is a :class:`RectangleCover` whose rectangles may overlap.

Indices are 0-based throughout.  Color ids are arbitrary non-negative
integers and need not be contiguous.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat


class OverlapError(ValueError):
    """Two rectangles share a cell where a simple coloring was required."""


class NotShufflePreserved(ValueError):
    """Raised when an operation requires a shuffle-preserved input.

    Carries the offending violation as ``.violation``: a
    :class:`ShuffleViolation`, or on a k-partite cover a
    :class:`KPartiteShuffleViolation` or :class:`KPartiteCoverageViolation`.
    """

    def __init__(
        self, violation: ShuffleViolation | KPartiteShuffleViolation | KPartiteCoverageViolation
    ):
        super().__init__(f"not shuffle-preserved: {violation}")
        self.violation = violation


# ---------------------------------------------------------------------------
# value types

COLOR_IDS = "color ids must be non-negative integers, got {!r}"
INDICES = "indices must be non-negative integers, got {!r}"
N_AND_M = "n and m must be positive integers, got {!r}"


def check_ints(message: str, *values: object, low: int = 0) -> None:
    """Raise ``ValueError(message)`` unless every value is an int (a bool is
    not) of at least ``low``: the one check on every size, id, count and
    limit an input or a caller brings.  A ``{!r}`` in ``message`` becomes
    the offending value."""
    for value in values:
        # an exact int, the common case, skips both isinstance calls
        not_int = type(value) is not int and (isinstance(value, bool) or not isinstance(value, int))
        if not_int or value < low:
            raise ValueError(message.format(value))


def _collected(values: Iterable[int]) -> Collection[int]:
    """``values``, or a tuple of them if they have no length (an iterator)."""
    return values if hasattr(values, "__len__") else tuple(values)


def _row_objects(cells: tuple[tuple[int, ...], ...]) -> dict[int, tuple[int, ...]]:
    """Each row object of ``cells`` once, keyed by identity, in first-seen
    order.  A matrix whose rows repeat (mod-m, or parsed from text) shares
    one tuple per distinct row, so its work per row is done once."""
    return dict(zip(map(id, cells), cells))


@dataclass(frozen=True)
class ColorMatrix:
    """Simple coloring of a complete bipartite graph: one color per cell."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("matrix needs at least one row")
        width = len(cells[0])
        if width == 0:
            raise ValueError("matrix needs at least one column")
        for row in _row_objects(cells).values():
            if len(row) != width:
                raise ValueError("ragged matrix rows")
            # a row of exact non-negative ints passes in C; any other row
            # goes through check_ints, which names its first bad value
            if {*map(type, row)} != {int} or min(row) < 0:
                check_ints(COLOR_IDS, *row)

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.cells[0])

    def colors(self) -> set[int]:
        return set().union(*self.cells)


@dataclass(frozen=True)
class Rectangle:
    """One color class: every (row, col) in rows x cols carries this color."""

    color: int
    rows: frozenset[int]
    cols: frozenset[int]

    def __post_init__(self):
        # frozen first, so a side that is not a collection of hashables fails
        # before the color; checked as given, since a set merges True into 1
        # and orders strings by hash (frozenset() returns a frozenset as is)
        rows = _collected(self.rows)
        object.__setattr__(self, "rows", frozenset(rows))
        cols = _collected(self.cols)
        object.__setattr__(self, "cols", frozenset(cols))
        check_ints(COLOR_IDS, self.color)
        if not rows or not cols:
            raise ValueError("rectangle sides must be nonempty")
        check_ints(INDICES, *rows, *cols)

    @property
    def min_side(self) -> int:
        return min(len(self.rows), len(self.cols))

    def area(self) -> int:
        return len(self.rows) * len(self.cols)


@dataclass(frozen=True)
class RectangleCover:
    """Multigraph coloring: one rectangle per color, overlaps allowed.

    Overlapping rectangles are parallel edges of distinct colors.  Coverage
    of every cell is a semantic requirement checked by
    :func:`check_coverage`, not by the constructor, so partially built
    covers are representable.
    """

    n_rows: int
    n_cols: int
    rectangles: tuple[Rectangle, ...]

    def __post_init__(self):
        object.__setattr__(self, "rectangles", tuple(self.rectangles))
        dims = "cover dimensions must be positive integers, got {!r}"
        check_ints(dims, self.n_rows, self.n_cols, low=1)
        seen: set[int] = set()
        for rect in self.rectangles:
            if rect.color in seen:
                raise ValueError(f"duplicate color {rect.color} in cover")
            seen.add(rect.color)
            if max(rect.rows) >= self.n_rows or max(rect.cols) >= self.n_cols:
                raise ValueError(f"rectangle for color {rect.color} exceeds the grid")

    @classmethod
    def _from_lists(
        cls, n_rows: object, n_cols: object, colors: Sequence, rows: Sequence, cols: Sequence
    ) -> RectangleCover | None:
        """The cover whose rectangle i has color ``colors[i]`` and sides the
        lists ``rows[i]`` and ``cols[i]``, checked over whole lists at C
        speed as :class:`Rectangle` and :meth:`__post_init__` check them
        (an exact int is no bool or float; so no bool merges away); None
        when any check fails or there are no rectangles, for the caller to
        build rectangle by rectangle and word the error."""
        if {type(n_rows), type(n_cols)} != {int} or not colors:
            return None
        if {*map(type, colors)} != {int} or min(colors) < 0 or len({*colors}) < len(colors):
            return None
        for sides, bound in ((rows, n_rows), (cols, n_cols)):
            if {*map(type, sides)} != {list} or not all(sides):
                return None
            flat = [*chain.from_iterable(sides)]
            if {*map(type, flat)} != {int} or min(flat) < 0 or max(flat) >= bound:
                return None
        # built as the dataclasses' own __init__ builds them, but with
        # C-level maps over whole lists instead of a Python call per rectangle
        rects = tuple(map(object.__new__, repeat(Rectangle, len(colors))))
        for name, values in (("color", colors), ("rows", map(frozenset, rows)),
                             ("cols", map(frozenset, cols))):
            deque(map(object.__setattr__, rects, repeat(name), values), maxlen=0)
        cover = object.__new__(cls)
        object.__setattr__(cover, "n_rows", n_rows)
        object.__setattr__(cover, "n_cols", n_cols)
        object.__setattr__(cover, "rectangles", rects)
        return cover

    def colors(self) -> set[int]:
        return {r.color for r in self.rectangles}


@dataclass(frozen=True)
class LocalProfile:
    """Per-vertex color counts for a cover, plus the two summary widths."""

    row_counts: tuple[int, ...]
    col_counts: tuple[int, ...]
    local_width: int
    global_colors: int


@dataclass(frozen=True)
class ShuffleViolation:
    """Concrete failure of the swap property.

    Edges (u, v) and (u_prime, v_prime) both carry ``color`` but at least
    one of (u, v_prime), (u_prime, v) does not.
    """

    u: int
    u_prime: int
    v: int
    v_prime: int
    color: int

    kind = "shuffle"


@dataclass(frozen=True)
class CoverageViolation:
    """A cell no rectangle covers."""

    row: int
    col: int

    kind = "coverage"


@dataclass(frozen=True)
class LocalityViolation:
    """A vertex that sees more colors than the allowed budget."""

    side: str  # "row" or "col"
    index: int
    count: int
    limit: int

    kind = "locality"


Violation = ShuffleViolation | CoverageViolation | LocalityViolation


@dataclass(frozen=True)
class Witness:
    """A monochromatic complete bipartite subgraph, truncated to p x p."""

    color: int
    rows: frozenset[int]
    cols: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "rows", frozenset(self.rows))
        object.__setattr__(self, "cols", frozenset(self.cols))

    kind = "witness"


@dataclass(frozen=True)
class KPartiteWitness:
    """A monochromatic complete k-partite subgraph, p vertices per part."""

    color: int
    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(frozenset(p) for p in self.parts))

    kind = "kpartite_witness"


@dataclass(frozen=True)
class SuperimposedWitness:
    """A color subset together with the vertices common to all its cliques."""

    colors: frozenset[int]
    vertices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))
        object.__setattr__(self, "vertices", frozenset(self.vertices))

    kind = "superimposed_witness"


@dataclass(frozen=True)
class KPartiteCover:
    """Coloring of a complete k-partite multigraph, all parts of size n.

    Edges between parts a < b are given as rectangles whose ``rows`` index
    part a and ``cols`` index part b.  Unlike :class:`RectangleCover`,
    colors may repeat across (and within) pairs: the same global color can
    touch many part pairs.
    """

    k: int
    n: int
    pairs: tuple[tuple[int, int, tuple[Rectangle, ...]], ...]

    def __post_init__(self):
        check_ints("part count k must be an integer of at least 2, got {!r}", self.k, low=2)
        check_ints("part size n must be a positive integer, got {!r}", self.n, low=1)
        canon = []
        seen_pairs = set()
        for a, b, rects in self.pairs:
            check_ints("part ids must be non-negative integers, got {!r}", a, b)
            if not a < b < self.k:
                raise ValueError(f"bad part pair ({a}, {b})")
            if (a, b) in seen_pairs:
                raise ValueError(f"duplicate part pair ({a}, {b})")
            seen_pairs.add((a, b))
            rects = tuple(rects)
            for rect in rects:
                if max(rect.rows) >= self.n or max(rect.cols) >= self.n:
                    raise ValueError(f"rectangle exceeds part size in pair ({a}, {b})")
            canon.append((a, b, rects))
        canon.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "pairs", tuple(canon))

    def colors(self) -> set[int]:
        return {r.color for _, _, rects in self.pairs for r in rects}

    def touched_sets(self, color: int) -> list[set[int]]:
        """Fresh per-part vertex sets incident to an edge of ``color``."""
        touched = self._groups.get(color, ({}, {}))[0]
        return [set(touched.get(part, ())) for part in range(self.k)]

    @cached_property
    def _groups(self) -> dict[int, _ColorGroup]:
        """Per color, grouped in one pass on first use and then kept: the
        vertices it touches in each part it touches, and its rectangles by
        part pair, in cover order.  Not a field, and not pickled."""
        groups: dict[int, _ColorGroup] = {}
        for a, b, rects in self.pairs:
            for rect in rects:
                if rect.color not in groups:
                    groups[rect.color] = ({}, {})
                touched, own = groups[rect.color]
                touched.setdefault(a, set()).update(rect.rows)
                touched.setdefault(b, set()).update(rect.cols)
                own.setdefault((a, b), []).append(rect)
        return groups

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "_groups"}


@dataclass(frozen=True)
class KPartiteShuffleViolation:
    """Color touches both endpoints' parts but the edge between them is missing."""

    color: int
    part_u: int
    u: int
    part_v: int
    v: int

    kind = "kpartite_shuffle"


@dataclass(frozen=True)
class KPartiteCoverageViolation:
    """A cross-part vertex pair no edge of any color connects."""

    part_a: int
    part_b: int
    row: int
    col: int

    kind = "kpartite_coverage"


@dataclass(frozen=True)
class CliqueFamily:
    """One clique of vertices per color on a shared vertex set 0..n-1."""

    n_vertices: int
    cliques: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        check_ints("vertex count must be a positive integer, got {!r}", self.n_vertices, low=1)
        canon = []
        seen = set()
        for color, vertices in self.cliques:
            check_ints(COLOR_IDS, color)
            if color in seen:
                raise ValueError(f"duplicate color {color}")
            seen.add(color)
            vertices = _collected(vertices)  # checked as given, as a Rectangle side
            frozen = frozenset(vertices)
            if not vertices:
                raise ValueError(f"clique for color {color} is empty")
            check_ints(INDICES, *vertices)
            if max(frozen) >= self.n_vertices:
                raise ValueError(f"clique for color {color} has out-of-range vertices")
            canon.append((color, frozen))
        canon.sort(key=lambda e: e[0])
        object.__setattr__(self, "cliques", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.cliques)

    def membership_histogram(self) -> dict[int, int]:
        """d_i: how many vertices lie in exactly i cliques (i >= 1 only)."""
        per_vertex: dict[int, int] = {}
        for _, vertices in self.cliques:
            for v in vertices:
                per_vertex[v] = per_vertex.get(v, 0) + 1
        hist: dict[int, int] = {}
        for count in per_vertex.values():
            hist[count] = hist.get(count, 0) + 1
        return hist


# ---------------------------------------------------------------------------
# validators and conversions


_Spans = dict[int, tuple[list[tuple[int, ...]], set[int]]]


def _color_spans(matrix: ColorMatrix) -> tuple[int, _Spans]:
    """Rows and columns each color occupies (its rectangle, if the matrix
    is shuffle-preserved), read from each distinct row once.

    Returns the number of distinct rows and, per color, the groups of equal
    rows that hold it (one tuple of row indices per distinct row, shared by
    every color the row holds) and its columns.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for r, row in enumerate(matrix.cells):
        groups.setdefault(row, []).append(r)
    spans: _Spans = {}
    for row, rows in groups.items():
        rows = tuple(rows)
        for c, color in enumerate(row):
            span = spans.get(color)
            if span is None:
                spans[color] = ([rows], {c})
            else:
                span[1].add(c)
                if span[0][-1] is not rows:
                    span[0].append(rows)
    return len(groups), spans


def _span_violation(matrix: ColorMatrix, n_distinct: int, spans: _Spans) -> ShuffleViolation | None:
    # A distinct row holds each of its colors on some of that color's
    # columns, and those cells make up its n_cols.  So summed over colors,
    # (distinct rows holding it) x (its columns) is at least n_distinct x
    # n_cols, with equality exactly when every row holds each of its colors
    # on all of that color's columns: when no span holds another color.
    area = sum(len(groups) * len(cols) for groups, cols in spans.values())
    if area == n_distinct * matrix.n_cols:
        return None
    for color in sorted(spans):
        groups, cols = spans[color]
        rows, cols = sorted(chain.from_iterable(groups)), sorted(cols)
        for r in rows:
            row = matrix.cells[r]
            for c in cols:
                if row[c] != color:
                    # (r, c) is in the rectangle span but miscolored; pick
                    # witnesses from the same row and column.
                    v = next(x for x in cols if row[x] == color)
                    u_prime = next(x for x in rows if matrix.cells[x][c] == color)
                    return ShuffleViolation(u=r, u_prime=u_prime, v=v, v_prime=c, color=color)
    return None


def validate_shuffle_preserved(matrix: ColorMatrix) -> ShuffleViolation | None:
    """Check the swap property; return None if it holds.

    On failure returns a :class:`ShuffleViolation` whose four edges re-check
    against the matrix: (u, v) and (u_prime, v_prime) carry the color,
    (u, v_prime) does not.
    """
    return _span_violation(matrix, *_color_spans(matrix))


def _shuffle_spans(matrix: ColorMatrix) -> _Spans:
    """Per color, the groups of equal rows that hold it and its columns, as
    :func:`_color_spans` reads them; the matrix must be shuffle-preserved,
    or :class:`NotShufflePreserved` is raised carrying the violation
    :func:`validate_shuffle_preserved` returns."""
    n_distinct, spans = _color_spans(matrix)
    violation = _span_violation(matrix, n_distinct, spans)
    if violation is not None:
        raise NotShufflePreserved(violation)
    return spans


ColorClass = tuple[int, Collection[int], Collection[int]]


def color_classes(instance: ColorMatrix | RectangleCover) -> list[ColorClass]:
    """Each color class as ``(color, rows, cols)``, its rectangle's sides.

    On a cover: one triple per rectangle, in cover order.  On a matrix: the
    row and column span of each color, in ascending color order, read off
    the matrix without building a :class:`Rectangle`; the matrix must be
    shuffle-preserved, or :class:`NotShufflePreserved` is raised carrying
    the violation :func:`validate_shuffle_preserved` returns.  The sides
    are tuples or frozensets of distinct indices in no particular order;
    colors held by the same rows may share one rows tuple.
    """
    if isinstance(instance, RectangleCover):
        return [(rect.color, rect.rows, rect.cols) for rect in instance.rectangles]
    spans = _shuffle_spans(instance)
    classes: list[ColorClass] = []
    for color in sorted(spans):  # sorting the bare ids is cheaper than the items
        groups, cols = spans[color]
        rows = groups[0] if len(groups) == 1 else (*chain.from_iterable(groups),)
        classes.append((color, rows, frozenset(cols)))
    return classes


def matrix_to_rectangles(matrix: ColorMatrix) -> RectangleCover:
    """Convert a shuffle-preserved matrix to its rectangle cover.

    Raises :class:`NotShufflePreserved` (carrying the violation) otherwise.
    Rectangles come out sorted by color id.
    """
    rects = tuple(
        Rectangle(color=color, rows=frozenset(rows), cols=frozenset(cols))
        for color, rows, cols in color_classes(matrix)
    )
    return RectangleCover(n_rows=matrix.n_rows, n_cols=matrix.n_cols, rectangles=rects)


def rectangles_to_matrix(cover: RectangleCover) -> ColorMatrix:
    """Flatten a disjoint, covering rectangle family back to a matrix.

    Raises :class:`OverlapError` if two rectangles share a cell and
    ValueError if some cell is uncovered (a multigraph or partial cover has
    no matrix form).
    """
    grid: list[list[int | None]] = [[None] * cover.n_cols for _ in range(cover.n_rows)]
    for rect in cover.rectangles:
        for r in rect.rows:
            row = grid[r]
            for c in rect.cols:
                if row[c] is not None:
                    raise OverlapError(
                        f"cell ({r}, {c}) lies in rectangles of colors {row[c]} and {rect.color}"
                    )
                row[c] = rect.color
    for r, row in enumerate(grid):
        if None in row:
            raise ValueError(f"cell ({r}, {row.index(None)}) is uncovered; no matrix form exists")
    return ColorMatrix(tuple(tuple(row) for row in grid))  # type: ignore[arg-type]


def _bitmask(indices: Collection[int]) -> int:
    """The sum of 1 << i over distinct indices i >= 0, in time linear in the
    largest: the bits are set in a bytearray that ``int.from_bytes`` reads.
    Summing the powers is quadratic in the largest index."""
    bits = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _first_gap(
    rows: Iterable[int], cols: Sequence[int], rects: Iterable[Rectangle]
) -> tuple[int, int] | None:
    """First cell of rows x cols, row-major in the order given, that no
    rectangle in ``rects`` covers; None if every cell is covered.  ``cols``
    must be ascending, so a row's first gap is its lowest missing bit.
    When ``cols`` is a range from 0, that bit is read off the row's mask
    alone, so a declared width costs nothing until a rectangle reaches it.

    Each distinct column set becomes a bitmask once (:func:`_bitmask`):
    rectangles often share one (the k = 7 recursive cover's 8,192
    rectangles have 256), and a frozenset caches its hash, so the lookup is
    cheaper than building the mask.
    """
    masks: dict[int, int] = {}
    col_masks: dict[frozenset[int], int] = {}
    for rect in rects:
        col_mask = col_masks.get(rect.cols)
        if col_mask is None:
            col_mask = col_masks[rect.cols] = _bitmask(rect.cols)
        for r in rect.rows:
            masks[r] = masks.get(r, 0) | col_mask
    if isinstance(cols, range) and cols.start == 0 and cols.step == 1:
        for r in rows:
            mask = masks.get(r, 0)
            col = (~mask & (mask + 1)).bit_length() - 1  # its lowest unset bit
            if col < cols.stop:
                return r, col
        return None
    want = _bitmask(cols)
    for r in rows:
        gap = want & ~masks.get(r, 0)
        if gap:
            return r, (gap & -gap).bit_length() - 1
    return None


def check_coverage(cover: RectangleCover) -> CoverageViolation | None:
    """Return the first (row-major) uncovered cell, or None if all covered."""
    gap = _first_gap(range(cover.n_rows), range(cover.n_cols), cover.rectangles)
    return None if gap is None else CoverageViolation(row=gap[0], col=gap[1])


def local_profile(cover: RectangleCover) -> LocalProfile:
    """Count how many colors each vertex sees.

    A row vertex sees the colors of exactly the rectangles whose row set
    contains it (colors are distinct per rectangle), so membership counts
    are color counts.
    """
    row_counts = [0] * cover.n_rows
    col_counts = [0] * cover.n_cols
    for rect in cover.rectangles:
        for r in rect.rows:
            row_counts[r] += 1
        for c in rect.cols:
            col_counts[c] += 1
    width = max(max(row_counts, default=0), max(col_counts, default=0))
    return LocalProfile(
        row_counts=tuple(row_counts),
        col_counts=tuple(col_counts),
        local_width=width,
        global_colors=len(cover.rectangles),
    )


def matrix_local_profile(matrix: ColorMatrix) -> LocalProfile:
    """Color counts per vertex for a plain matrix (no shuffle assumption)."""
    # a repeated row adds no color to any column
    cells = matrix.cells
    distinct = _row_objects(cells)
    counts = dict(zip(distinct, map(len, map(set, distinct.values()))))
    row_counts = tuple(map(counts.__getitem__, map(id, cells)))
    col_counts = tuple(map(len, map(set, zip(*distinct.values()))))
    return LocalProfile(
        row_counts=row_counts,
        col_counts=col_counts,
        local_width=max(max(row_counts), max(col_counts)),
        global_colors=len(set().union(*distinct.values())),
    )


def locality_violation(profile: LocalProfile, limit: int) -> LocalityViolation | None:
    """First vertex (rows before cols) exceeding ``limit`` colors, if any."""
    check_ints("limit must be a non-negative integer, got {!r}", limit)
    for side, counts in (("row", profile.row_counts), ("col", profile.col_counts)):
        for i, count in enumerate(counts):
            if count > limit:
                return LocalityViolation(side=side, index=i, count=count, limit=limit)
    return None


def triple_count(cover: RectangleCover) -> int:
    """Number of (u, v, c) triples with u and v both incident to color c.

    Equals the total rectangle area since a color is incident to row u and
    column v exactly when its rectangle contains the cell (u, v).
    """
    return sum(rect.area() for rect in cover.rectangles)


# ---------------------------------------------------------------------------
# k-partite validators


_ColorGroup = tuple[dict[int, set[int]], dict[tuple[int, int], list[Rectangle]]]


def validate_kpartite(cover: KPartiteCover) -> KPartiteShuffleViolation | None:
    """Check the multipartite swap property.

    For every color c and every two parts a != b that c touches, every pair
    (u, v) with u in the touched set of a and v in the touched set of b must
    carry an edge of color c.  Returns the first missing pair found, colors
    ascending and part pairs in order, or None.
    """
    for color, (touched, own) in sorted(cover._groups.items()):
        for a, b in combinations(sorted(touched), 2):
            gap = _first_gap(sorted(touched[a]), sorted(touched[b]), own.get((a, b), ()))
            if gap is not None:
                return KPartiteShuffleViolation(
                    color=color, part_u=a, u=gap[0], part_v=b, v=gap[1]
                )
    return None


def check_kpartite_coverage(cover: KPartiteCover) -> KPartiteCoverageViolation | None:
    """First cross-part vertex pair with no edge at all, or None if complete."""
    by_pair = {(a, b): rects for a, b, rects in cover.pairs}
    for a, b in combinations(range(cover.k), 2):
        gap = _first_gap(range(cover.n), range(cover.n), by_pair.get((a, b), ()))
        if gap is not None:
            return KPartiteCoverageViolation(part_a=a, part_b=b, row=gap[0], col=gap[1])
    return None


def kpartite_violation(cover: KPartiteCover) -> KPartiteShuffleViolation | KPartiteCoverageViolation | None:
    """First fault of a complete k-partite coloring: a swap violation
    (:func:`validate_kpartite`) before a coverage gap, or None."""
    return validate_kpartite(cover) or check_kpartite_coverage(cover)


# ---------------------------------------------------------------------------
# bound calculators


def guaranteed_p(n: int, m: int) -> int:
    """Largest p (capped at n) such that every m-local shuffle-preserved
    coloring of the n x n complete bipartite multigraph is forced to contain
    a monochromatic K_{p,p}.

    For m >= 2 this is the largest p <= n with 2(p-1)(m-1) < n.  A 1-local
    coloring collapses to a single color, so m = 1 gives n.
    """
    check_ints(N_AND_M, n, m, low=1)
    if m == 1:
        return n
    return min(n, (n - 1) // (2 * (m - 1)) + 1)


def avoidance_threshold(n: int, m: int) -> int:
    """ceil(n/m): the mod-m construction packs each color into at most this
    many rows, so monochromatic K_{p,p} with p above this value are avoidable
    by an m-coloring (hence also m-locally).  For m-colorings it is exact: a
    color with no K_{p,p} has a side of at most p-1 lines, so m colors cover
    the n^2 cells only when (p-1)m >= n, that is when p > ceil(n/m)."""
    check_ints(N_AND_M, n, m, low=1)
    return -(-n // m)
