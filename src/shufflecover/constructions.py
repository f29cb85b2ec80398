"""Extremal colorings that avoid monochromatic complete subgraphs.

Three deterministic families plus a seeded random generator used as test
fodder:

* :func:`construct_mod_m` colors row i with i mod m, packing every color
  into at most ceil(n/m) rows, so no monochromatic K_{p,p} exists for
  p > ceil(n/m).
* :func:`construct_recursive_matrix` doubles a hand-built 4x4 base whose
  color classes are all 1x2 or 2x1.  Level k gives a 2^k-sided matrix that
  is 3*2^(k-2)-local with no monochromatic K_{2,2}.
* :func:`construct_kpartite_avoiding` extends the mod-m idea to k parts
  using parallel edges, reusing the same m colors globally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import ColorMatrix, KPartiteCover, Rectangle, RectangleCover

# Hand-built 4x4 base: every color class is a 1x2 or 2x1 rectangle, every
# row and column sees exactly 3 colors, and no color fills a 2x2.
_BASE_4X4 = (
    (1, 5, 2, 2),
    (1, 4, 3, 4),
    (8, 5, 8, 7),
    (6, 6, 3, 7),
)


class GenerationFailed(RuntimeError):
    """Random cover generation exhausted its retry budget."""


@dataclass(frozen=True)
class RecursiveMatrixParams:
    """Doubling parameters: level k >= 2 yields a 2^k x 2^k matrix."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("recursion starts at the 4x4 base, k >= 2")

    @property
    def side(self) -> int:
        return 1 << self.k


def construct_mod_m(n: int, m: int) -> ColorMatrix:
    """Color cell (i, j) with i mod m.

    Valid for any positive n, m (m > n just leaves colors unused).  The
    result is an m-coloring, hence m-local, and shuffle-preserved: color r
    occupies exactly the rows congruent to r crossed with all columns.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return ColorMatrix(tuple((i % m,) * n for i in range(n)))


def construct_recursive_matrix(k: int) -> ColorMatrix:
    """Level-k doubling of the 4x4 base.

    Each step surrounds the current matrix M (max entry mu) with shifted
    copies::

        M        mu + M
        2mu + M  3mu + M

    The four blocks use disjoint color ranges, so a monochromatic K_{2,2}
    would have to sit inside a single block, and by induction none does.
    Per-vertex color counts double each step: level k is 3*2^(k-2)-local.
    """
    params = RecursiveMatrixParams(k)
    cells = _BASE_4X4
    for _ in range(2, params.k):
        mu = max(map(max, cells))
        top = tuple(row + tuple(map(mu.__add__, row)) for row in cells)
        bottom = tuple(
            tuple(map((2 * mu).__add__, row)) + tuple(map((3 * mu).__add__, row)) for row in cells
        )
        cells = top + bottom
    return ColorMatrix(cells)


def construct_kpartite_avoiding(n: int, m: int, k: int) -> KPartiteCover:
    """m-coloring of the complete k-partite multigraph (parts of size n)
    with no monochromatic complete subgraph of p vertices per part for
    p > ceil(n/m).

    Pairs touching part 0 use the mod-m rule: color r joins the part-0
    rows congruent to r to the whole opposite part.  Every other pair
    carries m parallel full rectangles, one per color.  All k*(k-1)/2 pairs
    reuse the same m color ids, so the whole coloring is an m-coloring.
    With k = 2 this degenerates to the rectangle form of
    :func:`construct_mod_m`.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if k < 2:
        raise ValueError("need at least two parts")
    all_of_part = frozenset(range(n))
    mod_rects = tuple(
        Rectangle(color=r, rows=frozenset(range(r, n, m)), cols=all_of_part)
        for r in range(min(m, n))
    )
    full_rects = tuple(
        Rectangle(color=r, rows=all_of_part, cols=all_of_part) for r in range(m)
    )
    pairs = []
    for b in range(1, k):
        pairs.append((0, b, mod_rects))
    for a in range(1, k):
        for b in range(a + 1, k):
            pairs.append((a, b, full_rects))
    return KPartiteCover(k=k, n=n, pairs=tuple(pairs))


def random_cover(n: int, m: int, max_min_side: int, seed: int) -> RectangleCover:
    """Seeded random coverage-complete cover of the n x n grid.

    Every row and column lands in at most m rectangles (so the result is
    m-local) and every rectangle's thin side has at most max_min_side
    indices.  Overlaps are allowed and common: the output is a multigraph
    coloring with consecutive color ids in creation order.

    Greedy: repeatedly take the first uncovered cell, pick a random thin
    axis, grow a small random thin side through that cell, and span the
    fat side across every budget-positive line that still has uncovered
    cells in the thin slice.  Deterministic for a fixed seed.  Raises
    :class:`GenerationFailed` when a retry budget (200 attempts) runs out,
    e.g. random_cover(4, 1, 1, seed) for every seed.
    """
    if n < 1 or m < 1 or max_min_side < 1:
        raise ValueError("n, m, max_min_side must be positive")
    rng = random.Random(seed)
    for attempt in range(200):
        # rotate three flavors: cell-greedy explores loose instances well,
        # the block pattern reaches tight thin-1 instances, and row-group
        # stripes cover the regime where thin sides of ceil(n/m) fit
        flavor = attempt % 3
        if flavor == 0:
            rects = _attempt_cover(n, m, max_min_side, rng)
        elif flavor == 1:
            rects = _attempt_block(n, m, rng)
        else:
            rects = _attempt_stripes(n, m, max_min_side, rng)
        if rects is not None:
            return RectangleCover(n_rows=n, n_cols=n, rectangles=rects)
    raise GenerationFailed(
        f"no (n={n}, m={m}, max_min_side={max_min_side}) cover found in 200 attempts"
    )


def _attempt_cover(
    n: int, m: int, max_min_side: int, rng: random.Random
) -> tuple[Rectangle, ...] | None:
    row_used = [0] * n
    col_used = [0] * n
    uncovered = [[True] * n for _ in range(n)]
    remaining = n * n
    rects: list[Rectangle] = []
    while remaining:
        r0, c0 = next((r, c) for r in range(n) for c in range(n) if uncovered[r][c])
        if row_used[r0] >= m or col_used[c0] >= m:
            return None  # no new rectangle may contain this cell
        if rng.random() < 0.5:
            # thin side = rows
            extra_pool = [
                r
                for r in range(n)
                if r != r0 and row_used[r] < m and any(uncovered[r])
            ]
            extra = rng.randint(0, max_min_side - 1)
            rows = [r0] + rng.sample(extra_pool, min(extra, len(extra_pool)))
            fat_pool = [
                c
                for c in range(n)
                if c != c0 and col_used[c] < m and any(uncovered[r][c] for r in rows)
            ]
            cols = [c0] + rng.sample(fat_pool, rng.randint(0, len(fat_pool)))
        else:
            # thin side = cols
            extra_pool = [
                c
                for c in range(n)
                if c != c0 and col_used[c] < m and any(uncovered[r][c] for r in range(n))
            ]
            extra = rng.randint(0, max_min_side - 1)
            cols = [c0] + rng.sample(extra_pool, min(extra, len(extra_pool)))
            fat_pool = [
                r
                for r in range(n)
                if r != r0 and row_used[r] < m and any(uncovered[r][c] for c in cols)
            ]
            rows = [r0] + rng.sample(fat_pool, rng.randint(0, len(fat_pool)))
        for r in rows:
            row_used[r] += 1
        for c in cols:
            col_used[c] += 1
        for r in rows:
            for c in cols:
                if uncovered[r][c]:
                    uncovered[r][c] = False
                    remaining -= 1
        rects.append(Rectangle(color=len(rects), rows=frozenset(rows), cols=frozenset(cols)))
    return tuple(rects)


def _attempt_block(n: int, m: int, rng: random.Random) -> tuple[Rectangle, ...] | None:
    """One row-rect per row over a balanced random span, then one col-rect
    per column mopping up its leftovers.  All thin sides are 1.

    Row i ends up in 1 + (n - w_i) rectangles, so spans need
    w_i >= n + 1 - m; columns need membership count at most m - 1 when they
    have leftovers.  Reaches the tight block-structured covers.
    """
    lo = max(1, n + 1 - m)
    if lo > n:
        return None
    # half the attempts pin every span to the minimum width; the balanced
    # column pick then lands the exact-budget instances (n*lo = about m*n)
    tight = rng.random() < 0.5
    col_count = [0] * n
    spans: list[list[int]] = []
    for _ in range(n):
        w = lo if tight else rng.randint(lo, n)
        cols = sorted(range(n), key=lambda c: (col_count[c], rng.random()))[:w]
        spans.append(sorted(cols))
        for c in cols:
            col_count[c] += 1
    for j in range(n):
        leftover = any(j not in spans[i] for i in range(n))
        if col_count[j] + (1 if leftover else 0) > m:
            return None
    rects = [
        Rectangle(color=i, rows=frozenset([i]), cols=frozenset(span))
        for i, span in enumerate(spans)
    ]
    for j in range(n):
        leftover = [i for i in range(n) if j not in spans[i]]
        if leftover:
            rects.append(
                Rectangle(color=len(rects), rows=frozenset(leftover), cols=frozenset([j]))
            )
    return tuple(rects)


def _attempt_stripes(
    n: int, m: int, max_min_side: int, rng: random.Random
) -> tuple[Rectangle, ...] | None:
    """Shuffle the rows and chunk them into g full-width stripes.

    Needs g <= m groups of size <= max_min_side, so it works exactly when
    max_min_side >= ceil(n/m).  Group sizes differ by at most one.
    """
    g_min = -(-n // max_min_side)
    if g_min > m:
        return None
    g = rng.randint(g_min, m)
    rows = list(range(n))
    rng.shuffle(rows)
    groups = [rows[i::g] for i in range(g) if rows[i::g]]
    all_cols = frozenset(range(n))
    return tuple(
        Rectangle(color=i, rows=frozenset(grp), cols=all_cols)
        for i, grp in enumerate(groups)
    )
