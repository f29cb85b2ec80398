"""Extremal colorings that avoid monochromatic complete subgraphs.

Four deterministic families plus a seeded random generator used as test
fodder:

* :func:`construct_mod_m` colors row i with i mod m, packing every color
  into at most ceil(n/m) rows, so no monochromatic K_{p,p} exists for
  p > ceil(n/m).
* :func:`construct_recursive_matrix` doubles a hand-built 4x4 base whose
  color classes are all 1x2 or 2x1.  Level k gives a 2^k-sided matrix that
  is 3*2^(k-2)-local with no monochromatic K_{2,2}.
* :func:`construct_block_circulant` avoids K_{p,p} m-locally for every p
  above :func:`~shufflecover.core.guaranteed_p`, so the guarantee theorem
  is tight on the whole square table.
* :func:`construct_kpartite_avoiding` extends the mod-m idea to k parts
  using parallel edges, reusing the same m colors globally.
"""

from __future__ import annotations

import random

from .core import (
    N_AND_M,
    ColorMatrix,
    KPartiteCover,
    Rectangle,
    RectangleCover,
    check_ints,
    guaranteed_p,
)

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


def construct_mod_m(n: int, m: int) -> ColorMatrix:
    """Color cell (i, j) with i mod m.

    Valid for any positive n, m (m > n just leaves colors unused).  The
    result is an m-coloring, hence m-local, and shuffle-preserved: color r
    occupies exactly the rows congruent to r crossed with all columns.
    """
    check_ints(N_AND_M, n, m, low=1)
    rows = [(color,) * n for color in range(min(m, n))]  # one tuple per color
    return ColorMatrix(tuple(rows[i % m] for i in range(n)))


def construct_recursive_matrix(k: int) -> ColorMatrix:
    """Level-k doubling of the 4x4 base: a 2^k x 2^k matrix, for k >= 2.

    Each step surrounds the current matrix M (max entry mu) with shifted
    copies::

        M        mu + M
        2mu + M  3mu + M

    The four blocks use disjoint color ranges, so a monochromatic K_{2,2}
    would have to sit inside a single block, and by induction none does.
    Per-vertex color counts double each step: level k is 3*2^(k-2)-local.
    """
    check_ints("the 4x4 base is level 2: k must be an integer of at least 2, got {!r}", k, low=2)
    cells = _BASE_4X4
    for _ in range(2, k):
        mu = max(map(max, cells))
        top = tuple(row + tuple(map(mu.__add__, row)) for row in cells)
        bottom = tuple(
            tuple(map((2 * mu).__add__, row)) + tuple(map((3 * mu).__add__, row)) for row in cells
        )
        cells = top + bottom
    return ColorMatrix(cells)


def construct_block_circulant(n: int, m: int, p: int) -> RectangleCover:
    """An m-local coloring of the n x n grid with no monochromatic K_{p,p},
    for every p > guaranteed_p(n, m); smaller p raise ``ValueError``.

    Cut the rows, and likewise the columns, into N = ceil(n/(p-1)) groups
    of consecutive lines, each of at most p-1 lines (t = p-1).

    * If N <= m, take stripes: one rectangle per row group, over all
      columns.  A row sees 1 color and a column sees N <= m.
    * Otherwise take the N x N circulant X with k = N-m+1 ones per row,
      X[i][j] = 1 exactly when (j - i) mod N < k.  Row group i gets one
      rectangle over the column groups j with X[i][j] = 1, and column
      group j one over the row groups i with X[i][j] = 0 (it has N-k =
      m-1 >= 1 of them, since N > m forces m >= 2).  A row sees its own
      group's rectangle and the m-1 column-group rectangles of its zeros:
      m colors.  A column sees the k row-group rectangles of its ones and
      its own group's: N-m+2 colors, which is at most m exactly when
      N <= 2m-2.

    N <= 2m-2 holds exactly when n <= 2(p-1)(m-1), which is p >
    guaranteed_p(n, m); when guaranteed_p is capped at n, p > n gives N = 1
    and stripes.  Each block G_i x G_j lies in exactly one rectangle, so the
    rectangles are disjoint, cover the grid and have a matrix form.  Every
    rectangle has one group as a side, so its thin side has at most p-1
    lines; a color class is one rectangle, so no color holds K_{p,p}.

    Colors: row groups 0..N-1, then column groups N..2N-1 (stripes use the
    first N only).
    """
    check_ints("n, m, p must be positive integers, got {!r}", n, m, p, low=1)
    bound = guaranteed_p(n, m)
    if p <= bound:
        raise ValueError(
            f"p = {p} is at most guaranteed_p({n}, {m}) = {bound}: every {m}-local "
            f"coloring of the {n}x{n} grid holds a monochromatic K_{{{p},{p}}}"
        )
    t = p - 1
    groups = [frozenset(range(i, min(i + t, n))) for i in range(0, n, t)]
    big_n = len(groups)

    def run(first: int, count: int) -> frozenset[int]:
        # the lines of groups first, first+1, ..., first+count-1, mod N
        return frozenset().union(*(groups[g % big_n] for g in range(first, first + count)))

    if big_n <= m:
        rects = [Rectangle(color=i, rows=groups[i], cols=run(0, big_n)) for i in range(big_n)]
    else:
        # row i of X has its ones at columns i..i+k-1 and column j its
        # zeros at rows j+1..j+m-1, mod N
        k = big_n - m + 1
        rects = [Rectangle(color=i, rows=groups[i], cols=run(i, k)) for i in range(big_n)]
        rects += [
            Rectangle(color=big_n + j, rows=run(j + 1, m - 1), cols=groups[j])
            for j in range(big_n)
        ]
    return RectangleCover(n_rows=n, n_cols=n, rectangles=tuple(rects))


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
    check_ints(N_AND_M, n, m, low=1)
    check_ints("part count k must be an integer of at least 2, got {!r}", k, low=2)
    all_of_part = frozenset(range(n))
    mod_rects = tuple(
        Rectangle(color=r, rows=frozenset(range(r, n, m)), cols=all_of_part)
        for r in range(min(m, n))
    )
    full_rects = tuple(
        Rectangle(color=r, rows=all_of_part, cols=all_of_part) for r in range(m)
    )
    pairs = tuple(
        (a, b, full_rects if a else mod_rects) for a in range(k) for b in range(a + 1, k)
    )
    return KPartiteCover(k=k, n=n, pairs=pairs)


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
    check_ints("n, m, max_min_side must be positive integers, got {!r}", n, m, max_min_side, low=1)
    rng = random.Random(seed)
    # rotate three flavors: cell-greedy explores loose instances well, the
    # block pattern reaches tight thin-1 instances, and row-group stripes
    # cover the regime where thin sides of ceil(n/m) fit
    flavors = (_attempt_cover, _attempt_block, _attempt_stripes)
    for attempt in range(200):
        rects = flavors[attempt % 3](n, m, max_min_side, rng)
        if rects is not None:
            return RectangleCover(n_rows=n, n_cols=n, rectangles=rects)
    raise GenerationFailed(
        f"no (n={n}, m={m}, max_min_side={max_min_side}) cover found in 200 attempts"
    )


def _attempt_cover(
    n: int, m: int, max_min_side: int, rng: random.Random
) -> tuple[Rectangle, ...] | None:
    # axis 0 is the rows, axis 1 the columns: used[axis][line] counts the
    # rectangles through a line, and uncovered[axis][line] holds the other
    # axis's indices of its uncovered cells (both axes updated together)
    used = ([0] * n, [0] * n)
    uncovered = tuple([set(range(n)) for _ in range(n)] for _ in range(2))
    rects: list[Rectangle] = []
    for r0 in range(n):
        while uncovered[0][r0]:
            c0 = min(uncovered[0][r0])  # (r0, c0) is the first uncovered cell
            if used[0][r0] >= m or used[1][c0] >= m:
                return None  # no new rectangle may contain this cell
            # a random thin axis: up to max_min_side - 1 more lines that still
            # have uncovered cells, then a random share of the fat lines
            # that cross an uncovered cell of that slice
            thin = 0 if rng.random() < 0.5 else 1
            fat = 1 - thin
            cell = (r0, c0)
            sides = ([r0], [c0])
            extra_pool = [
                t for t in range(n)
                if t != cell[thin] and used[thin][t] < m and uncovered[thin][t]
            ]
            extra = rng.randint(0, max_min_side - 1)
            sides[thin].extend(rng.sample(extra_pool, min(extra, len(extra_pool))))
            reach = set().union(*(uncovered[thin][t] for t in sides[thin]))
            fat_pool = [
                f for f in range(n) if f != cell[fat] and used[fat][f] < m and f in reach
            ]
            sides[fat].extend(rng.sample(fat_pool, rng.randint(0, len(fat_pool))))
            for axis, side in enumerate(sides):
                for line in side:
                    used[axis][line] += 1
            rows, cols = sides
            for r in rows:
                covered = uncovered[0][r].intersection(cols)
                uncovered[0][r] -= covered
                for c in covered:
                    uncovered[1][c].discard(r)
            rects.append(Rectangle(color=len(rects), rows=frozenset(rows), cols=frozenset(cols)))
    return tuple(rects)


def _attempt_block(
    n: int, m: int, max_min_side: int, rng: random.Random
) -> tuple[Rectangle, ...] | None:
    """One row-rect per row over a balanced random span, then one col-rect
    per column mopping up its leftovers.  All thin sides are 1, so any
    max_min_side fits.

    Row i ends up in 1 + (n - w_i) rectangles, so spans need
    w_i >= n + 1 - m; columns need membership count at most m - 1 when they
    have leftovers.  Reaches the tight block-structured covers.
    """
    lo = max(1, n + 1 - m)
    # half the attempts pin every span to the minimum width; the balanced
    # column pick then lands the exact-budget instances (n*lo = about m*n)
    tight = rng.random() < 0.5
    col_count = [0] * n
    spans: list[set[int]] = []
    for _ in range(n):
        w = lo if tight else rng.randint(lo, n)
        cols = sorted(range(n), key=lambda c: (col_count[c], rng.random()))[:w]
        spans.append(set(cols))
        for c in cols:
            col_count[c] += 1
    leftovers = [[i for i, span in enumerate(spans) if j not in span] for j in range(n)]
    if any(col_count[j] + (1 if rows else 0) > m for j, rows in enumerate(leftovers)):
        return None
    rects = [
        Rectangle(color=i, rows=frozenset([i]), cols=frozenset(span))
        for i, span in enumerate(spans)
    ]
    for j, rows in enumerate(leftovers):
        if rows:
            rects.append(Rectangle(color=len(rects), rows=frozenset(rows), cols=frozenset([j])))
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
