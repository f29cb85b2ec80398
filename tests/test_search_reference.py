"""An independent reference for the search's verdicts.

``avoiding_cover`` decides a cell (n, m, p) by plain enumeration: it
branches on the first uncovered cell, row-major, and tries every rectangle
through it whose thin side is at most p-1 and whose lines all have a use
left.  Its only prune drops a child in which a line has no use left but
still has an uncovered cell.  It knows nothing of the counting bound, the
guarantee theorem, the block-circulant construction or the search's
candidate order, so agreeing with ``search_avoiding`` on every small cell
checks the closed-form verdicts and the search alike.  With a cap of m
rectangles in all, it checks that ``avoidance_threshold`` is exact for
m-colorings.
"""

from itertools import combinations

from shufflecover import (
    SAT,
    UNSAT,
    Rectangle,
    RectangleCover,
    SearchParams,
    avoidance_threshold,
    check_coverage,
    local_profile,
    search_avoiding,
)


def avoiding_cover(n, m, p, max_rects=None):
    """A list of (rows, cols) rectangles covering the n x n grid, every
    thin side at most p-1, every line in at most m of them and, when
    ``max_rects`` is given, at most that many in all; None when there is
    none."""
    cells = [(r, c) for r in range(n) for c in range(n)]

    def sides(first):
        # every set of lines on one side that holds ``first``
        others = [x for x in range(n) if x != first]
        for k in range(n):
            for extra in combinations(others, k):
                yield (first, *extra)

    def dead(covered, used):
        # a line with no use left and an uncovered cell
        return any(
            used[r] == m and any((r, c) not in covered for c in range(n)) for r in range(n)
        ) or any(
            used[n + c] == m and any((r, c) not in covered for r in range(n)) for c in range(n)
        )

    def extend(covered, used, chosen):
        first = next((cell for cell in cells if cell not in covered), None)
        if first is None:
            return list(chosen)
        if len(chosen) == max_rects:
            return None
        for rows in sides(first[0]):
            if any(used[r] == m for r in rows):
                continue
            for cols in sides(first[1]):
                if min(len(rows), len(cols)) > p - 1 or any(used[n + c] == m for c in cols):
                    continue
                child = covered | {(r, c) for r in rows for c in cols}
                child_used = list(used)
                for x in rows + tuple(n + c for c in cols):
                    child_used[x] += 1
                if dead(child, child_used):
                    continue
                found = extend(child, child_used, chosen + [(rows, cols)])
                if found is not None:
                    return found
        return None

    return extend(frozenset(), [0] * (2 * n), [])


def test_search_agrees_with_plain_enumeration():
    verdicts = []
    for n in range(1, 5):
        for m in range(1, n + 1):
            for p in range(1, n + 2):
                rects = avoiding_cover(n, m, p)
                out = search_avoiding(SearchParams(n, m, p))
                assert out.verdict == (UNSAT if rects is None else SAT), (n, m, p)
                verdicts.append(out.verdict)
                if rects is None:
                    continue
                # the reference's own cover passes the independent checkers
                cover = RectangleCover(n_rows=n, n_cols=n, rectangles=tuple(
                    Rectangle(color=i, rows=rows, cols=cols) for i, (rows, cols) in enumerate(rects)
                ))
                assert check_coverage(cover) is None
                assert local_profile(cover).local_width <= m
                assert all(rect.min_side <= p - 1 for rect in cover.rectangles)
    assert (len(verdicts), verdicts.count(SAT)) == (40, 22)


def test_avoidance_threshold_is_exact_for_m_colorings():
    # m rectangles with a side of at most p-1 cover the n^2 cells only when
    # (p-1)m >= n, and the mod-m coloring does it once p > ceil(n/m)
    cells = 0
    for n in range(1, 5):
        for m in range(1, n + 1):
            for p in range(1, n + 2):
                found = avoiding_cover(n, m, p, max_rects=m) is not None
                assert found == (p > avoidance_threshold(n, m)), (n, m, p)
                cells += 1
    assert cells == 40
