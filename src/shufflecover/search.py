"""Exhaustive search for colorings that avoid a monochromatic K_{p,p}.

An m-local shuffle-preserved multigraph coloring of the n x n grid with no
monochromatic K_{p,p} exists exactly when the grid has a rectangle cover in
which every rectangle's thin side is at most p-1 and every row and column
lies in at most m rectangles.  The search runs over that cover space:
depth-first, branching on the lexicographically first uncovered cell,
trying the candidate rectangles through it thinnest first, then largest.

Every prune is provably complete: none loses a cover.  A candidate never
includes a row above the branching row (those rows are covered), and each
of its lines brings an uncovered cell (shrinking a cover's rectangle to such
lines leaves a cover).  On top of that:

* Thin side first: under at most p-1 rows any columns are taken, otherwise
  only column sets of at most p-1 are drawn; these are exactly the
  rectangles the thin-side bound allows, so none is lost.
* Dead children are never built: a rectangle that uses the last of a
  line's m slots while that line keeps an uncovered cell can never be
  completed, since no later rectangle may touch that line.  So once the
  thin side is fixed, a wide class whose lines are on their last use and
  have an uncovered cell off the thin side is left out, a wide class that
  meets an uncovered cell of a thin line on its last use is forced in at
  full length, and the thin side is given up when a forced class cannot
  join.  Dead children are not counted as nodes.
* Counting bound, the guarantee theorem's own argument, checked once on
  entry of every state, the root included.  Let t = p-1 and U the uncovered
  cells; an open line L (one with an uncovered cell) has u_L of them and
  s_L = m - used_L uses left, and cap_L = s_L - [u_L > t*s_L].  No
  completion exists when |U| > t * sum(cap_L over open L).  Proof: shrink a
  completion so that its rectangles touch only open lines.  Call a
  rectangle row-thin if it has at most t rows, else column-thin, and charge
  each cell of U to one rectangle covering it: to that rectangle's column
  if it is row-thin, to its row if it is column-thin.  A rectangle takes at
  most t charges on any line, so |U| <= t * sum(rectangles charging L).  If
  u_L > t*s_L, some rectangle through L has L on its thin side and charges
  nothing to L, so at most s_L - 1 rectangles charge L.  On the empty grid
  the bound fires exactly when n > 2(p-1)(m-1) and p <= n: the paper's
  theorem.  The per-line counts are handed down: a rectangle changes u_L
  and s_L only on its own lines, so the parent updates u_L and cap_L on
  those lines (and the sum by their change) before entering the child, and
  restores them after.  A state that fails counts as one node and one
  ``counting`` prune, and no child of it is generated.
* Symmetry is broken (after Crawford, Ginsberg, Luks & Roy, KR 1996).
  Two open lines with the same uncovered cells and the same use count are
  interchangeable: swapping them maps the state to itself, so from each
  class of such lines a candidate takes only a prefix, lowest index first.
  On the empty grid that leaves [0, a) x [0, b), and since transposing maps
  the empty grid to itself, only a <= b is tried there.

Verdicts are SAT (with a certificate cover), UNSAT (search space exhausted),
or INCONCLUSIVE (timeout or node budget hit; never reported as UNSAT).

Practical envelope, measured with ``bench/run.py`` in reference seconds
(see bench/README.md): the counting bound refutes every guaranteed cell at
the root, in 1 node, so the 150 cells of ``table --n-max 5`` take 582
nodes in all.  All 8 ``hot_cells`` cells are decided, in about 0.8 s for
the whole pass; the slowest, (6,4,2), (7,3,3) and (7,5,2), are SAT in
17,950, 1,824 and 52,291 nodes.  ``threshold_table(7,
timeout_per_cell=20)`` decides all 392 cells with n <= 7 in about 1 raw
second on a 2-core VM.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .core import Rectangle, RectangleCover, avoidance_threshold, check_ints, guaranteed_p

SAT = "SAT"
UNSAT = "UNSAT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SearchParams:
    """Problem cell (n, m, p) plus optional wall-clock and node budgets.

    n, m, p and ``node_limit`` must be ints (not bools) of at least 1, and
    ``timeout`` positive, else ``ValueError``."""

    n: int
    m: int
    p: int
    timeout: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        check_ints("n, m, p must be positive integers, got {!r}", self.n, self.m, self.p, low=1)
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.node_limit is not None:
            check_ints("node_limit must be a positive integer, got {!r}", self.node_limit, low=1)


@dataclass
class SearchStats:
    """Work done by one search.

    ``nodes`` counts every state entered, the root included; dead children
    are never built and not counted.  ``prunes`` maps a reason to how often
    it fired: ``counting`` (a state entered fails the counting bound),
    ``no_candidates`` (no live rectangle covers the first uncovered cell),
    ``abort_timeout`` and ``abort_nodes`` (a budget ran out; the verdict
    is INCONCLUSIVE).  ``millis`` is the wall-clock time of the search.
    """

    nodes: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    millis: float = 0.0


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str
    witness: RectangleCover | None
    stats: SearchStats


@dataclass(frozen=True)
class TableRow:
    n: int
    m: int
    p: int
    regime: str
    verdict: str
    nodes: int
    millis: float


class _Abort(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _prefixes(classes: list[list[int]], low: int, high: int) -> list[tuple[int, ...]]:
    """Every union of one prefix from each class with between ``low`` and
    ``high`` lines in all, as a sorted tuple, the first class's prefix
    length varying slowest.  A partial union that is already at ``high``,
    or can no longer reach ``low``, is not extended."""
    rest = sum(map(len, classes))
    if high < max(low, 0) or low > rest:
        return []
    if not high:
        return [()]  # the thin side's extra lines when p = 2
    unions: list[tuple[int, ...]] = [()]
    for cls in classes:
        rest -= len(cls)
        grown = []
        for union in unions:
            size = len(union)
            for k in range(max(0, low - size - rest), min(len(cls), high - size) + 1):
                grown.append(union + tuple(cls[:k]))
        unions = grown
    return [tuple(sorted(union)) for union in unions]


class _Searcher:
    def __init__(self, n: int, m: int, p: int, deadline: float | None, node_limit: int | None):
        self.n = n
        self.m = m
        self.p = p
        self.full = (1 << (n * n)) - 1
        # Lines 0..n-1 are the rows and n..2n-1 the columns; shifting a
        # line's cells down by shift[x] aligns it with the rest of its side.
        self.mask = [((1 << n) - 1) << (r * n) for r in range(n)]
        self.mask += [sum(1 << (r * n + c) for r in range(n)) for c in range(n)]
        self.shift = [r * n for r in range(n)] + list(range(n))
        # cap[s][u]: cap_L of a line with s uses left and u uncovered cells
        t = p - 1
        self.cap = [[(s - (u > t * s)) if u else 0 for u in range(n + 1)] for s in range(m + 1)]
        self.deadline = deadline
        self.node_limit = node_limit
        self.nodes = 0
        self.prunes: Counter[str] = Counter()
        self.witness: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None

    # -- candidate enumeration ------------------------------------------

    def candidates(
        self, covered: int, used: list[int]
    ) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """All live canonical rectangles through the first uncovered cell,
        as (rows, cols, cell_mask), thin-side-first.  ``used`` and ``cols``
        index lines: columns are lines n..2n-1.

        The state must be live: every line with an uncovered cell has a use
        left.  A child that would leave a line with no use left and an
        uncovered cell is dead, and is never built (module docstring)."""
        n, last, thin_cap = self.n, self.m - 1, self.p - 1
        mask, shift = self.mask, self.shift
        uncov = ~covered & self.full
        r0, c0 = divmod((uncov & -uncov).bit_length() - 1, n)
        c0 += n
        # Rows above r0 are covered, and a line joins only if it brings an
        # uncovered cell.  Lines with the same uncovered cells and the same
        # use count are interchangeable: swapping two of them maps the state
        # to itself.  So from each class of them a candidate takes a prefix,
        # lowest index first (r0 and c0 are the lowest of their classes).
        classes: tuple[dict, dict] = ({}, {})
        for x in range(r0 + 1, 2 * n):
            line = uncov & mask[x]
            if line and x != c0:
                classes[x >= n].setdefault((line >> shift[x], used[x]), []).append(x)
        rows = (r0, list(classes[0].values()))
        cols = (c0, list(classes[1].values()))
        found = []
        # Rows are the thin side (at most p-1 of them, any columns), then
        # columns are (at most p-1 of them, under at least p rows).  Once
        # the thin side is fixed, its lines on their last use must be
        # covered in full: that forces in, at full length, every wide class
        # meeting their uncovered cells.  A wide line on its last use may
        # join only if the thin side spans all its uncovered cells.
        for thin, wide, low in ((rows, cols, 0), (cols, rows, thin_cap)):
            thin_first, thin_classes = thin
            wide_first, wide_classes = wide
            # the wide side's first line joins every candidate
            first_left = uncov & mask[wide_first] if used[wide_first] == last else 0
            for extra in _prefixes(thin_classes, 0, thin_cap - 1):
                thin_lines = tuple(sorted((thin_first,) + extra))
                spans = must = 0
                for x in thin_lines:
                    spans |= mask[x]
                    if used[x] == last:
                        must |= uncov & mask[x]
                if first_left & ~spans:
                    continue
                live = uncov & spans
                forced, free = [], []
                for cls in wide_classes:
                    cls_mask = mask[cls[0]]
                    if not live & cls_mask:
                        continue
                    if used[cls[0]] == last and uncov & cls_mask & ~spans:
                        if must & cls_mask:
                            break  # a forced class cannot join: no candidate
                    elif must & cls_mask:
                        forced += cls
                    else:
                        free.append(cls)
                else:
                    for wide_extra in _prefixes(free, low - len(forced), n - len(forced)):
                        wide_lines = (wide_first,) + wide_extra + tuple(forced)
                        reach = 0
                        for y in wide_lines:
                            reach |= mask[y]
                        new = live & reach
                        if all(new & mask[x] for x in extra):
                            wide_lines = tuple(sorted(wide_lines))
                            if thin is rows:
                                found.append((thin_lines, wide_lines, spans & reach))
                            else:
                                found.append((wide_lines, thin_lines, spans & reach))
        if not covered:
            # Every candidate on the empty grid is some [0, a) x [0, b), and
            # transposing maps the empty grid to itself, so a <= b suffices.
            found = [cand for cand in found if len(cand[0]) <= len(cand[1])]
        found.sort(key=lambda cand: (
            min(len(cand[0]), len(cand[1])), -len(cand[0]) * len(cand[1]), cand[0], cand[1]
        ))
        return found

    def within_bound(self, uncovered: int, total: int) -> bool:
        """The counting bound: False when ``uncovered`` cells are more than
        p-1 times ``total``, the sum of cap_L over all lines."""
        return uncovered <= (self.p - 1) * total

    # -- depth-first search ---------------------------------------------

    def search(self, covered: int, used: list[int]) -> bool:
        """Search on from the state (covered, used), with u_L and cap_L
        (module docstring) of every line counted from scratch; cap_L is 0
        on a line with no uncovered cell."""
        uncov = ~covered & self.full
        self.used = list(used)
        self.counts = [(uncov & mask).bit_count() for mask in self.mask]
        self.caps = [self.cap[self.m - k][u] for k, u in zip(used, self.counts)]
        return self.dfs(covered, sum(self.caps), [])

    def dfs(
        self,
        covered: int,
        total: int,
        chosen: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ) -> bool:
        """Search on from a state whose per-line ``used``, ``counts`` and
        ``caps`` are on ``self``, with ``total`` the sum of its caps."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Abort("nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Abort("timeout")
        if covered == self.full:
            self.witness = list(chosen)
            return True
        uncov = ~covered & self.full
        if not self.within_bound(uncov.bit_count(), total):
            self.prunes["counting"] += 1
            return False
        used, counts, caps = self.used, self.counts, self.caps
        cands = self.candidates(covered, used)
        if not cands:
            self.prunes["no_candidates"] += 1
        m, cap, mask = self.m, self.cap, self.mask
        for rows, cols, cell_mask in cands:
            # only the lines of the rectangle change
            lines = rows + cols
            new = uncov & cell_mask
            gain = 0
            for x in lines:
                used[x] += 1
                counts[x] -= (new & mask[x]).bit_count()
                line_cap = cap[m - used[x]][counts[x]]
                gain += line_cap - caps[x]
                caps[x] = line_cap
            chosen.append((rows, cols))
            if self.dfs(covered | cell_mask, total + gain, chosen):
                return True
            chosen.pop()
            for x in lines:
                used[x] -= 1
                counts[x] += (new & mask[x]).bit_count()
                caps[x] = cap[m - used[x]][counts[x]]
        return False


def _witness_cover(n: int, rects: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> RectangleCover:
    return RectangleCover(
        n_rows=n,
        n_cols=n,
        rectangles=tuple(
            Rectangle(color=i, rows=frozenset(rows), cols=frozenset(c - n for c in cols))
            for i, (rows, cols) in enumerate(rects)
        ),
    )


def search_avoiding(params: SearchParams) -> SearchOutcome:
    """Decide whether an avoiding cover exists for the cell (n, m, p).

    SAT outcomes carry a certificate :class:`RectangleCover` (coverage
    complete, local width <= m, every thin side <= p-1) with colors numbered
    in discovery order.  UNSAT means the dominance-canonical space was
    exhausted.  Budgets produce INCONCLUSIVE; ``timeout`` is one wall-clock
    limit for the whole search.
    """
    n = params.n
    start = time.monotonic()
    deadline = start + params.timeout if params.timeout is not None else None
    searcher = _Searcher(n, params.m, params.p, deadline, params.node_limit)
    witness = None
    try:
        if searcher.search(0, [0] * (2 * n)):
            verdict = SAT
            witness = _witness_cover(n, searcher.witness)
        else:
            verdict = UNSAT
    except _Abort as abort:
        searcher.prunes[f"abort_{abort.reason}"] += 1
        verdict = INCONCLUSIVE
    millis = (time.monotonic() - start) * 1000.0
    stats = SearchStats(searcher.nodes, dict(searcher.prunes), millis)
    return SearchOutcome(verdict, witness, stats)


def threshold_table(
    n_max: int,
    m_max: int | None = None,
    p_max: int | None = None,
    *,
    timeout_per_cell: float | None = None,
    node_limit: int | None = None,
) -> Iterator[TableRow]:
    """Sweep all cells (n, m, p) up to the given maxima, yielding one row per
    cell as it is decided.  The maxima and budgets are checked at the call,
    before any row is asked for: each maximum must be an int (not a bool)
    of at least 1, and each budget given must pass :class:`SearchParams`,
    else ``ValueError``.

    ``regime`` classifies each cell against the closed-form bounds:
    guaranteed (p <= guaranteed_p(n, m): every valid coloring contains a
    monochromatic K_{p,p}, so the search must come back UNSAT), avoidable
    (p > ceil(n/m): the mod-m construction avoids, so SAT), or open (the
    search is the tie-breaker).
    """
    if m_max is None:
        m_max = n_max
    if p_max is None:
        p_max = n_max + 1
    for name, value in (("n_max", n_max), ("m_max", m_max), ("p_max", p_max)):
        check_ints(f"{name} must be a positive integer, got {{!r}}", value, low=1)
    # the budgets are checked by SearchParams; do that here too, not per cell
    SearchParams(1, 1, 1, timeout=timeout_per_cell, node_limit=node_limit)
    return (
        _table_row(n, m, p, timeout_per_cell, node_limit)
        for n in range(1, n_max + 1)
        for m in range(1, m_max + 1)
        for p in range(1, p_max + 1)
    )


def _table_row(n: int, m: int, p: int, timeout: float | None, node_limit: int | None) -> TableRow:
    if p <= guaranteed_p(n, m):
        regime = "guaranteed"
    elif p > avoidance_threshold(n, m):
        regime = "avoidable"
    else:
        regime = "open"
    outcome = search_avoiding(SearchParams(n, m, p, timeout=timeout, node_limit=node_limit))
    return TableRow(
        n=n,
        m=m,
        p=p,
        regime=regime,
        verdict=outcome.verdict,
        nodes=outcome.stats.nodes,
        millis=outcome.stats.millis,
    )


CSV_HEADER = "n,m,p,regime,verdict,nodes,millis"


def table_row_csv(row: TableRow) -> str:
    return f"{row.n},{row.m},{row.p},{row.regime},{row.verdict},{row.nodes},{row.millis:.0f}"
