"""Exhaustive search for colorings that avoid a monochromatic K_{p,p}.

An m-local shuffle-preserved multigraph coloring of the n x n grid with no
monochromatic K_{p,p} exists exactly when the grid has a rectangle cover in
which every rectangle's thin side is at most p-1 and every row and column
lies in at most m rectangles.  The search runs over that cover space:
depth-first, branching on the lexicographically first uncovered cell,
trying the candidate rectangles through it thinnest first, then largest.

A cell the theorems decide is answered at the root, whatever the budgets;
the depth-first search runs only where they are silent.  Every cell with
p <= guaranteed_p(n, m) is UNSAT: the counting bound below fires exactly
there on the empty grid.  On the p = 2 row every rectangle has one row or
one column, and a cover exists exactly when n = 1 or n <= 2m-2, which is
p = 2 > guaranteed_p(n, m); each such cell is SAT with the cover
:func:`~shufflecover.constructions.construct_block_circulant` builds.

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
* Counting bound, the guarantee theorem's own argument, checked at the
  root on entry and on every other state as it is generated.  Let t = p-1
  and U the uncovered
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
  theorem.  A rectangle changes u_L and s_L only on its own lines, so a
  child's |U| and sum(cap_L) follow from its parent's by the change on
  those lines.  Once the thin side is fixed, every line of a wide class
  gains the same new cells and the same cap change, so a wide prefix
  carries its change as a running sum, class by class, and each thin line
  costs one popcount per child.  A child that fails is one ``counting``
  prune and is never built, sorted or entered; a root that fails is one
  node and one ``counting`` prune.  The parent hands its per-line counts
  down: it updates u_L and cap_L on the rectangle's lines before entering
  the child, and restores them after.
* Symmetry is broken (after Crawford, Ginsberg, Luks & Roy, KR 1996).
  Two open lines with the same uncovered cells and the same use count are
  interchangeable: swapping them maps the state to itself, so from each
  class of such lines a candidate takes only a prefix, lowest index first.
  On the empty grid that leaves [0, a) x [0, b), and since transposing maps
  the empty grid to itself, only a <= b is tried there.

Verdicts are SAT (with a certificate cover), UNSAT (refuted at the root, or
the search space exhausted), or INCONCLUSIVE (a budget hit; never UNSAT).

A node is a state entered: the root and every child that passed the
counting bound; a cell answered at the root is 1 node.  Practical
envelope, measured with ``bench/run.py`` in reference seconds (see
bench/README.md): every guaranteed cell is refuted at the root, in 1
node, so the 150 cells of ``table --n-max 5`` take 401 nodes in all.
All 8 ``hot_cells`` cells are decided in 293 nodes, about 0.015 s for
the whole pass; all but (7,3,3), SAT in 286 nodes, are decided at the
root.  ``threshold_table(7)`` decides all 392 cells with n <= 7 in 1,695
nodes and about 0.09 raw seconds on a 2-core VM; it builds none of the
309 SAT certificates, which ``search_avoiding`` on the same cells would
add about 0.025 s for.  The DFS alone, run on every cell, takes 26,118
nodes there.  (10,4,3) is SAT in 13,305 nodes, about 1.3 raw seconds.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .constructions import construct_block_circulant
from .core import Rectangle, RectangleCover, avoidance_threshold, check_ints, guaranteed_p

SAT = "SAT"
UNSAT = "UNSAT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SearchParams:
    """Problem cell (n, m, p) plus optional wall-clock and node budgets.

    n, m, p and ``node_limit`` must be ints (not bools) of at least 1, and
    ``timeout`` a finite positive int or float (not a bool), else
    ``ValueError``."""

    n: int
    m: int
    p: int
    timeout: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        check_ints("n, m, p must be positive integers, got {!r}", self.n, self.m, self.p, low=1)
        timeout = self.timeout
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout <= sys.float_info.max  # nan and inf fail too
        ):
            raise ValueError(f"timeout must be a finite positive number of seconds, got {timeout!r}")
        if self.node_limit is not None:
            check_ints("node_limit must be a positive integer, got {!r}", self.node_limit, low=1)


@dataclass
class SearchStats:
    """Work done by one search.

    ``nodes`` counts every state entered, the root included; dead children
    and children that fail the counting bound are never built and not
    counted; a cell the theorems decide is 1 node (:func:`search_avoiding`).
    ``prunes`` maps a reason to how often it fired: ``counting`` (a
    generated child fails the counting bound, or the root does, as on every
    guaranteed cell; on a SAT cell this also counts the failing siblings
    generated after the winning branch), ``no_candidates`` (no live
    rectangle through the first uncovered cell leaves a child that passes
    the bound), ``abort_timeout`` and ``abort_nodes`` (a budget ran out; the
    verdict is INCONCLUSIVE).  ``millis`` is the wall-clock time of the
    search.
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
    """One cell of :func:`threshold_table`: its regime, verdict and nodes,
    and ``millis``, the wall-clock time to decide it (no certificate is
    built)."""

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


def _prefixes(
    classes: list[tuple[tuple[int, ...], list[int], int]], low: int, high: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """Every union of one prefix from each class with between ``low`` and
    ``high`` lines in all, the first class's prefix length varying
    slowest, as (lines, mask, gain).  A class is (lines, masks, gain):
    ``masks[k]`` is the union of its first k lines' cells and ``gain`` what
    each of its lines adds; a union carries its lines in class order, the
    union of their cells and the sum of their gains.  A partial union that
    is already at ``high``, or can no longer reach ``low``, is not
    extended."""
    if high < max(low, 0):
        return []
    rest = 0
    for lines, _, _ in classes:
        rest += len(lines)
    if low > rest:
        return []
    unions: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    for lines, masks, gain in classes:
        rest -= len(lines)
        grown = []
        for union, reach, total in unions:
            size = len(union)
            for k in range(max(0, low - size - rest), min(len(lines), high - size) + 1):
                grown.append((union + lines[:k], reach | masks[k], total + k * gain))
        unions = grown
    return unions


class _Searcher:
    def __init__(self, n: int, m: int, p: int, deadline: float | None, node_limit: int | None):
        self.n = n
        self.m = m
        self.p = p
        self.full = (1 << (n * n)) - 1
        # Lines 0..n-1 are the rows and n..2n-1 the columns; shifting a
        # line's cells down by shift[x] aligns it with the rest of its side.
        # column 0 is the sum of 2^(r*n) over the rows, (2^(n*n) - 1) / (2^n - 1)
        column = ((1 << n * n) - 1) // ((1 << n) - 1)
        self.mask = [((1 << n) - 1) << (r * n) for r in range(n)]
        self.mask += [column << c for c in range(n)]
        self.shift = [r * n for r in range(n)] + list(range(n))
        # cap[s][u]: cap_L of a line with s uses left and u uncovered cells
        t = p - 1
        self.cap = [[(s - (u > t * s)) if u else 0 for u in range(n + 1)] for s in range(m + 1)]
        self.deadline = deadline
        self.node_limit = node_limit
        self.nodes = 0
        self.prunes: Counter[str] = Counter()
        self.witness: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None

    def load(self, covered: int, used: list[int]) -> int:
        """Keep the state's per-line ``used``, ``counts`` (u_L) and ``caps``
        (cap_L, module docstring; 0 on a line with no uncovered cell) on
        the searcher, counted from scratch, and return the sum of the caps."""
        uncov = ~covered & self.full
        self.used = list(used)
        self.counts = [(uncov & mask).bit_count() for mask in self.mask]
        self.caps = [self.cap[self.m - k][u] for k, u in zip(used, self.counts)]
        return sum(self.caps)

    # -- candidate enumeration ------------------------------------------

    def candidates(
        self, covered: int, total: int
    ) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
        """All live canonical rectangles through the first uncovered cell
        whose child passes the counting bound, as (rows, cols, cell_mask,
        child_total), thin-side-first; ``child_total`` is the child's sum
        of cap_L.  ``cols`` names columns by line id, n..2n-1.

        The state is the one on the searcher (``load``), with ``total`` its
        sum of cap_L, and must be live: every line with an uncovered cell
        has a use left.  A dead child (one that would leave a line with no
        use left and an uncovered cell) is never built; a child that fails
        the counting bound is counted as a ``counting`` prune and never
        built either (module docstring)."""
        n, m, thin_cap = self.n, self.m, self.p - 1
        last = m - 1
        mask, shift, cap = self.mask, self.shift, self.cap
        used, counts, caps = self.used, self.counts, self.caps
        within_bound = self.within_bound
        uncov = ~covered & self.full
        left = uncov.bit_count()
        r0, c0 = divmod((uncov & -uncov).bit_length() - 1, n)
        c0 += n
        # Rows above r0 are covered, and a line joins only if it brings an
        # uncovered cell.  Lines with the same uncovered cells and the same
        # use count are interchangeable: swapping two of them maps the state
        # to itself.  So from each class of them a candidate takes a prefix,
        # lowest index first (r0 and c0 are the lowest of their classes).
        # Each class is kept as [lines, masks, 0] for _prefixes: masks[k]
        # is the union of the cells of its first k lines.
        sides = []
        for lines in (range(r0 + 1, n), range(n, 2 * n)):
            side = {}
            for x in lines:
                line = uncov & mask[x]
                if line and x != c0:
                    key = (line >> shift[x], used[x])
                    cls = side.get(key)
                    if cls is None:
                        side[key] = [(x,), [0, mask[x]], 0]
                    else:
                        cls[0] += (x,)
                        cls[1].append(cls[1][-1] | mask[x])
            sides.append(list(side.values()))
        rows, cols = (r0, sides[0]), (c0, sides[1])
        found, failed = [], 0
        # Rows are the thin side (at most p-1 of them, any columns), then
        # columns are (at most p-1 of them, under at least p rows).  Once
        # the thin side is fixed, its lines on their last use must be
        # covered in full: that forces in, at full length, every wide class
        # meeting their uncovered cells.  A wide line on its last use may
        # join only if the thin side spans all its uncovered cells.
        #
        # The child's counting bound needs its |new| and the change of
        # sum(cap_L) over the rectangle's lines.  Each new cell lies on one
        # thin line, so |new| is the thin lines' new cells; a wide line
        # gains new cells where it meets the thin side, the same number
        # on every line of a class, so a wide class's cap change per line
        # is fixed with the thin side and summed along with its prefixes.
        #
        # Every candidate on the empty grid is some [0, a) x [0, b), and
        # transposing maps the empty grid to itself, so a <= b suffices
        # there: the rows are the thin side, and no more than the columns.
        orientations = ((rows, cols, 0), (cols, rows, thin_cap)) if covered else ((rows, cols, 0),)
        for thin, wide, low in orientations:
            thin_first, thin_classes = thin
            wide_first, wide_classes = wide
            # the wide side's first line joins every candidate
            first_left = uncov & mask[wide_first] if used[wide_first] == last else 0
            for extra, extra_spans, _ in _prefixes(thin_classes, 0, thin_cap - 1):
                thin_lines = (thin_first,) + extra
                spans = mask[thin_first] | extra_spans
                if first_left & ~spans:
                    continue
                # a thin line's new cells depend on the wide side: kept as
                # (its cells, its cap_L by u_L after this use, u_L, cap_L)
                must, thin_counts = 0, []
                for x in thin_lines:
                    if used[x] == last:
                        must |= uncov & mask[x]
                    thin_counts.append((mask[x], cap[m - used[x] - 1], counts[x], caps[x]))
                live = uncov & spans
                y = wide_first
                forced = (y,)
                reach = mask[y]
                gain = cap[m - used[y] - 1][counts[y] - (live & reach).bit_count()] - caps[y]
                free = []
                for lines, masks, _ in wide_classes:
                    meets = live & masks[1]
                    if not meets:
                        continue
                    y = lines[0]
                    if used[y] == last and uncov & masks[1] & ~spans:
                        if must & meets:
                            break  # a forced class cannot join: no candidate
                        continue
                    line_gain = cap[m - used[y] - 1][counts[y] - meets.bit_count()] - caps[y]
                    if must & meets:
                        forced += lines
                        reach |= masks[-1]
                        gain += len(lines) * line_gain
                    else:
                        free.append((lines, masks, line_gain))
                else:
                    wide_low = low + 1 - len(forced)
                    for wide_extra, extra_reach, extra_gain in _prefixes(free, wide_low, n + 1 - len(forced)):
                        wide_cells = reach | extra_reach
                        new = live & wide_cells
                        new_count, child_gain = 0, gain + extra_gain
                        for x_mask, cap_after, u, x_cap in thin_counts:
                            k = (new & x_mask).bit_count()
                            if not k:
                                break  # a thin line brings no uncovered cell
                            new_count += k
                            child_gain += cap_after[u - k] - x_cap
                        else:
                            wide_lines = forced + wide_extra
                            if not covered and len(thin_lines) > len(wide_lines):
                                continue
                            if not within_bound(left - new_count, total + child_gain):
                                failed += 1
                                continue
                            cand = (tuple(sorted(thin_lines)), tuple(sorted(wide_lines)))
                            if thin is cols:
                                cand = cand[::-1]
                            found.append((*cand, spans & wide_cells, total + child_gain))
        if failed:
            self.prunes["counting"] += failed
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
        """Search on from the state (covered, used), counted from scratch."""
        return self.dfs(covered, self.load(covered, used), [])

    def dfs(
        self,
        covered: int,
        total: int,
        chosen: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ) -> bool:
        """Search on from a state whose per-line ``used``, ``counts`` and
        ``caps`` are on ``self``, with ``total`` the sum of its caps.  Only
        the root can fail the counting bound here: every child is checked
        when it is generated."""
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
        cands = self.candidates(covered, total)
        if not cands:
            self.prunes["no_candidates"] += 1
        m, cap, mask = self.m, self.cap, self.mask
        for rows, cols, cell_mask, child_total in cands:
            # only the lines of the rectangle change
            lines = rows + cols
            new = uncov & cell_mask
            for x in lines:
                used[x] += 1
                counts[x] -= (new & mask[x]).bit_count()
                caps[x] = cap[m - used[x]][counts[x]]
            chosen.append((rows, cols))
            if self.dfs(covered | cell_mask, child_total, chosen):
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


def search_avoiding(params: SearchParams, *, certificate: bool = True) -> SearchOutcome:
    """Decide whether an avoiding cover exists for the cell (n, m, p).

    SAT outcomes carry a certificate :class:`RectangleCover` (coverage
    complete, local width <= m, every thin side <= p-1).  A cell the
    theorems decide is answered at the root, in 1 node, whatever the
    budgets: p <= guaranteed_p(n, m) is UNSAT by the counting bound, and
    p = 2 above it is SAT with the block-circulant cover (module
    docstring).  Every other cell runs the depth-first search, whose
    certificate numbers its colors in discovery order; there UNSAT means
    the dominance-canonical space was exhausted, and the budgets produce
    INCONCLUSIVE.  ``timeout`` is one wall-clock limit for the whole search.
    ``millis`` counts the certificate's build too.  With
    ``certificate=False`` no certificate is built, a SAT outcome's witness
    is None and ``millis`` is the time to decide the cell; verdict and
    stats are otherwise the same.
    """
    start = time.monotonic()
    n, m, p = params.n, params.m, params.p
    witness = None
    if p <= guaranteed_p(n, m):
        # what the root's counting bound gives: the guarantee theorem
        verdict, nodes, prunes = UNSAT, 1, {"counting": 1}
    elif p == 2:
        # n = 1 or n <= 2m-2: the block-circulant cover answers at the root
        verdict, nodes, prunes = SAT, 1, {}
        if certificate:
            witness = construct_block_circulant(n, m, p)
    else:
        deadline = start + params.timeout if params.timeout is not None else None
        searcher = _Searcher(n, m, p, deadline, params.node_limit)
        try:
            if searcher.search(0, [0] * (2 * n)):
                verdict = SAT
                if certificate:
                    witness = _witness_cover(n, searcher.witness)
            else:
                verdict = UNSAT
        except _Abort as abort:
            searcher.prunes[f"abort_{abort.reason}"] += 1
            verdict = INCONCLUSIVE
        nodes, prunes = searcher.nodes, dict(searcher.prunes)
    millis = (time.monotonic() - start) * 1000.0
    return SearchOutcome(verdict, witness, SearchStats(nodes, prunes, millis))


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
    (p > ceil(n/m): the mod-m construction avoids, so SAT; exactly what an
    m-coloring avoids), or open (the paper's bounds leave the cell
    undecided; it is SAT by the block-circulant construction).  Each cell is answered by
    :func:`search_avoiding` with ``certificate=False``: the same verdict,
    nodes and budgets, but no certificate is built, so a row's ``millis`` is
    the time to decide the cell.  A cell the theorems decide ignores the
    budgets; ``timeout_per_cell`` and ``node_limit`` apply to each other
    cell's search on its own.
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
    outcome = search_avoiding(
        SearchParams(n, m, p, timeout=timeout, node_limit=node_limit), certificate=False
    )
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
