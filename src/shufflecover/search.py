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
* Dead children are dropped as candidates are built: a rectangle that uses
  the last of a line's m slots while that line keeps an uncovered cell can
  never be completed, since no later rectangle may touch that line.  Each
  dropped child still counts as one node and one ``dead_line`` prune.
* Counting bound, the guarantee theorem's own argument applied at every
  node.  Let t = p-1 and U the uncovered cells; an open line L (one with an
  uncovered cell) has u_L of them and s_L = m - used_L uses left, and
  cap_L = s_L - [u_L > t*s_L].  No completion exists when
  |U| > t * sum(cap_L over open L).  Proof: shrink a completion so that its
  rectangles touch only open lines.  Call a rectangle row-thin if it has at
  most t rows, else column-thin, and charge each cell of U to one rectangle
  covering it: to that rectangle's column if it is row-thin, to its row if
  it is column-thin.  A rectangle takes at most t charges on any line, so
  |U| <= t * sum(rectangles charging L).  If u_L > t*s_L, some rectangle
  through L has L on its thin side and charges nothing to L, so at most
  s_L - 1 rectangles charge L.  On the empty grid the bound fires exactly
  when n > 2(p-1)(m-1) and p <= n: the paper's theorem.
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
the root, in 1 node, so the 150 cells of ``table --n-max 5`` take 1,189
nodes and 0.023 s in all.  All 8 ``hot_cells`` cells are decided, in
1.84 s for the whole pass; the slowest, (6,4,2), (7,3,3) and (7,5,2), are
SAT in 58,504, 18,257 and 145,544 nodes.  ``threshold_table(7,
timeout_per_cell=20)`` decides all 392 cells with n <= 7 in about 2.3 raw
seconds on a 2-core VM.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .core import Rectangle, RectangleCover, avoidance_threshold, guaranteed_p

SAT = "SAT"
UNSAT = "UNSAT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SearchParams:
    """Problem cell (n, m, p) plus optional wall-clock and node budgets."""

    n: int
    m: int
    p: int
    timeout: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.p < 1:
            raise ValueError("n, m, p must be positive")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")


@dataclass
class SearchStats:
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


def _classes(keyed_lines) -> list[list[int]]:
    """Group (key, line) pairs by key; each class lists its lines in the
    order given."""
    classes: dict = {}
    for key, line in keyed_lines:
        classes.setdefault(key, []).append(line)
    return list(classes.values())


def _prefixes(classes: list[list[int]], low: int, high: int) -> Iterator[tuple[int, ...]]:
    """Every union of one prefix from each class with between ``low`` and
    ``high`` lines in all, as a sorted tuple."""
    for lengths in product(*(range(len(cls) + 1) for cls in classes)):
        if low <= sum(lengths) <= high:
            yield tuple(sorted(x for cls, k in zip(classes, lengths) for x in cls[:k]))


class _Searcher:
    def __init__(self, n: int, m: int, p: int, deadline: float | None, node_limit: int | None):
        self.n = n
        self.m = m
        self.p = p
        self.full = (1 << (n * n)) - 1
        self.row_mask = [((1 << n) - 1) << (r * n) for r in range(n)]
        self.col_mask = [
            sum(1 << (r * n + c) for r in range(n)) for c in range(n)
        ]
        self.deadline = deadline
        self.node_limit = node_limit
        self.nodes = 0
        self.prunes: Counter[str] = Counter()
        self.witness: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None

    # -- candidate enumeration ------------------------------------------

    def candidates(
        self, covered: int, row_used: list[int], col_used: list[int]
    ) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """All live canonical rectangles through the first uncovered cell,
        as (rows, cols, cell_mask), thin-side-first.

        The state must be live: every line with an uncovered cell has a use
        left.  A child that would leave a line with no use left and an
        uncovered cell is dead; it is dropped here and counted as one node
        and one ``dead_line`` prune."""
        n, m, thin_cap = self.n, self.m, self.p - 1
        row_mask, col_mask = self.row_mask, self.col_mask
        uncov = ~covered & self.full
        r0, c0 = divmod((uncov & -uncov).bit_length() - 1, n)
        # Rows above r0 are covered, and a line joins only if it brings an
        # uncovered cell.  Lines with the same uncovered cells and the same
        # use count are interchangeable: swapping two of them maps the state
        # to itself.  So from each class of them a candidate takes a prefix,
        # lowest index first (r0 and c0 are the lowest of their classes).
        row_classes = _classes(
            (((uncov & row_mask[r]) >> (r * n), row_used[r]), r)
            for r in range(r0 + 1, n)
            if uncov & row_mask[r]
        )
        col_classes = _classes(
            (((uncov & col_mask[c]) >> c, col_used[c]), c)
            for c in range(n)
            if c != c0 and uncov & col_mask[c]
        )
        # (rows, columns other than c0, rows_mask, cols_mask)
        found = []
        # rows are the thin side: at most p-1 of them, any columns
        for extra in _prefixes(row_classes, 0, thin_cap - 1):
            rows_mask = row_mask[r0]
            for r in extra:
                rows_mask |= row_mask[r]
            live = uncov & rows_mask
            useful = [cls for cls in col_classes if live & col_mask[cls[0]]]
            for ecols in _prefixes(useful, 0, n):
                cols_mask = col_mask[c0]
                for c in ecols:
                    cols_mask |= col_mask[c]
                new = live & cols_mask
                if all(new & row_mask[r] for r in extra):
                    found.append(((r0,) + extra, ecols, rows_mask, cols_mask))
        # columns are the thin side under more than p-1 rows
        for ecols in _prefixes(col_classes, 0, thin_cap - 1):
            cols_mask = col_mask[c0]
            for c in ecols:
                cols_mask |= col_mask[c]
            live = uncov & cols_mask
            useful = [cls for cls in row_classes if live & row_mask[cls[0]]]
            for extra in _prefixes(useful, thin_cap, n):
                rows_mask = row_mask[r0]
                for r in extra:
                    rows_mask |= row_mask[r]
                new = live & rows_mask
                if all(new & col_mask[c] for c in ecols):
                    found.append(((r0,) + extra, ecols, rows_mask, cols_mask))
        last_rows = sum(row_mask[r] for r in range(r0, n) if row_used[r] == m - 1)
        last_cols = sum(col_mask[c] for c in range(n) if col_used[c] == m - 1)
        if not covered:
            # Every candidate on the empty grid is some [0, a) x [0, b), and
            # transposing maps the empty grid to itself, so a <= b suffices.
            found = [cand for cand in found if len(cand[0]) <= len(cand[1]) + 1]
        out = []
        for rows, ecols, rows_mask, cols_mask in found:
            cell_mask = rows_mask & cols_mask
            # a line on its last use must be covered in full
            if uncov & ~cell_mask & (rows_mask & last_rows | cols_mask & last_cols):
                continue
            cols = tuple(sorted((c0,) + ecols))
            out.append((min(len(rows), len(cols)), -len(rows) * len(cols), rows, cols, cell_mask))
        dead = len(found) - len(out)
        if dead:
            self.nodes += dead
            self.prunes["dead_line"] += dead
        out.sort()
        return [(rows, cols, cell_mask) for _, _, rows, cols, cell_mask in out]

    def room_left(self, covered: int, row_used: list[int], col_used: list[int]) -> bool:
        """False when the counting bound (module docstring) shows that the
        uncovered cells cannot all be covered with the uses left."""
        uncov = ~covered & self.full
        t, m = self.p - 1, self.m
        cap = 0
        for masks, used in ((self.row_mask, row_used), (self.col_mask, col_used)):
            for mask, count in zip(masks, used):
                u = (uncov & mask).bit_count()
                if u:
                    left = m - count
                    cap += left - (u > t * left)
        return uncov.bit_count() <= t * cap

    # -- depth-first search ---------------------------------------------

    def dfs(
        self,
        covered: int,
        row_used: list[int],
        col_used: list[int],
        chosen: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ) -> bool:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Abort("nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Abort("timeout")
        if covered == self.full:
            self.witness = list(chosen)
            return True
        if not self.room_left(covered, row_used, col_used):
            self.prunes["counting"] += 1
            return False
        cands = self.candidates(covered, row_used, col_used)
        if not cands:
            self.prunes["no_candidates"] += 1
        for rows, cols, cell_mask in cands:
            for r in rows:
                row_used[r] += 1
            for c in cols:
                col_used[c] += 1
            chosen.append((rows, cols))
            if self.dfs(covered | cell_mask, row_used, col_used, chosen):
                return True
            chosen.pop()
            for r in rows:
                row_used[r] -= 1
            for c in cols:
                col_used[c] -= 1
        return False


def _witness_cover(n: int, rects: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> RectangleCover:
    return RectangleCover(
        n_rows=n,
        n_cols=n,
        rectangles=tuple(
            Rectangle(color=i, rows=frozenset(rows), cols=frozenset(cols))
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
        if searcher.dfs(0, [0] * n, [0] * n, []):
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
    cell as it is decided.

    ``regime`` classifies each cell against the closed-form bounds:
    guaranteed (p <= guaranteed_p(n, m): every valid coloring contains a
    monochromatic K_{p,p}, so the search must come back UNSAT), avoidable
    (p > ceil(n/m): the mod-m construction avoids, so SAT), or open (the
    search is the tie-breaker).
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if m_max is None:
        m_max = n_max
    if p_max is None:
        p_max = n_max + 1
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            for p in range(1, p_max + 1):
                if p <= guaranteed_p(n, m):
                    regime = "guaranteed"
                elif p > avoidance_threshold(n, m):
                    regime = "avoidable"
                else:
                    regime = "open"
                outcome = search_avoiding(
                    SearchParams(n, m, p, timeout=timeout_per_cell, node_limit=node_limit)
                )
                yield TableRow(
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
