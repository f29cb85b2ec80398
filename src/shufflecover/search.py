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
  completed, since no later rectangle may touch that line.  The wide
  side's first line (the one through the branching cell) joins every
  candidate, so when it is on its last use the thin side must span its
  uncovered cells: every thin class meeting them is forced in at full
  length, and only the other thin classes are drawn, in the room left
  under p-1.  Once the thin side is fixed, a wide class whose lines are on
  their last use and have an uncovered cell off the thin side is left out,
  a wide class that meets an uncovered cell of a thin line on its last use
  is forced in at full length, and the thin side is given up when a forced
  class cannot join.  Dead children are not counted as nodes.
* Counting bound, the guarantee theorem's own argument, checked on every
  state as it is generated.  Let t = p-1 and U the uncovered cells; an
  open line L (one with an uncovered cell) has u_L of them and s_L =
  m - used_L uses left, cap_L = s_L - [u_L > t*s_L], and weight w_L =
  min(u_L, t*cap_L): u_L when u_L <= t*s_L, else t*(s_L - 1).  No
  completion exists when |U| > sum(w_L over open L).  Proof: shrink a
  completion so that its rectangles touch only open lines.  Call a
  rectangle row-thin if it has at most t rows, else column-thin, and charge
  each cell of U to one rectangle covering it: to that rectangle's column
  if it is row-thin, to its row if it is column-thin.  A rectangle takes at
  most t charges on any line.  If u_L > t*s_L, some rectangle through L
  has L on its thin side and charges nothing to L, so at most cap_L
  rectangles charge L, and L takes at most t*cap_L charges.  Each charge
  to L is one of its own u_L uncovered cells, so L takes at most w_L
  charges, and |U| <= sum(w_L).  On the empty grid w_L = n when n <= t*m,
  where the bound cannot fire, and t*(m-1) otherwise, so it fires exactly
  when n > 2(p-1)(m-1) and p <= n: the paper's theorem, which
  :func:`search_avoiding` decides at the root, so the depth-first search
  is handed only roots that pass.  Deep in the tree the u_L term is the
  sharper one: a line with few cells left may still have uses to spare.
  A rectangle changes u_L and s_L only on its own lines, so a child's |U|
  and sum(w_L) follow from its parent's by the change on those lines.
  Once the thin side is fixed, every line of a wide class gains the same
  new cells and the same weight change, so a wide prefix carries its
  change as a running sum, class by class, and each thin line costs one
  popcount per child.  A child that fails is one ``counting`` prune and
  is never built, sorted or entered.  Before its wide sides are drawn, a
  whole thin side is refuted, as one ``thin_side`` prune, when no wide
  side can pass: when even the most |new| + (the change of sum(w_L))
  could be is too little.  That most is the forced wide lines' part,
  exact, plus each thin line's best weight change: after its use it has
  at most u_L - 1 uncovered cells and s uses left, so its weight is at
  most min(u_L - 1, t*s).  No free wide line adds to it: it brings k <= t
  new cells, one per thin line, and its weight falls by at least k.  If
  u_L <= t*s_L, w_L = u_L falls to at most u_L - k; otherwise u_L - k >
  t*(s_L - 1), so w_L stays t*(uses left - 1) and falls by t.  The same
  holds for a forced wide line.  A thin line's best weight change is at
  most 0: min(u_L - 1, t*s) is below u_L and at most t*(s_L - 1).  So a
  state that fails the bound has no child that passes it: the search need
  not check the state it enters.  The parent hands its per-line counts
  down: it updates u_L and w_L on the rectangle's lines before entering
  the child, and restores them after.
* Closed branching cells: the thin-side bound rules out a whole child on
  its branching cell (its first uncovered cell) alone.  When that cell's
  row and column both have one use left in the child, and each keeps more
  than p-1 uncovered cells, the one rectangle through the cell is the last
  on both lines, so it must hold all of their uncovered cells: both of its
  sides exceed p-1, and the child has no candidate.  The parent tests this
  on each child before it updates the per-line counts, and skips a child
  that fails: it is not entered and not counted as a node, but is one
  ``no_candidates`` prune, the one it would have recorded itself, so
  verdicts, witnesses and prune tallies are as if it were entered.  Only
  the branching cell is checked: testing every pair of lines on their last
  use costs O(n) per child and moves the prune tallies.
* Symmetry is broken (after Crawford, Ginsberg, Luks & Roy, KR 1996).
  Two open lines with the same uncovered cells and the same use count are
  interchangeable: swapping them maps the state to itself, so from each
  class of such lines a candidate takes only a prefix, lowest index first.
  On the empty grid that leaves [0, a) x [0, b), and since transposing maps
  the empty grid to itself, only a <= b is tried there.

Verdicts are SAT (with a certificate cover), UNSAT (refuted at the root, or
the search space exhausted), or INCONCLUSIVE (a budget hit; never UNSAT).

A node is a state entered: the root and every child that passed the
counting bound and was not skipped on a closed branching cell; a cell
answered at the root is 1 node.  Practical envelope, measured with
``bench/run.py`` in reference seconds (see bench/README.md): every
guaranteed cell is refuted at the root, in 1 node, so the 150 cells of
``table --n-max 5`` take 401 nodes in all.  All 8 ``hot_cells`` cells are
decided in 30 nodes, about 0.003 s for the whole pass; all but (7,3,3),
SAT in 23 nodes, are decided at the root.  ``threshold_table(7)``
decides all 392 cells with n <= 7 in 1,432 nodes and about 0.05 raw
seconds on a 2-core VM; it builds none of the 309 SAT certificates.  The
DFS alone, run on every cell, takes 1,611 nodes there.  (10,4,3) is SAT
in 22 nodes, about 1 raw ms.  (11,4,3) is SAT in 22,037 nodes, about
1.7-3 raw seconds; 23,568 ``no_candidates`` prunes fire on it, 8,514 of
them on children skipped unentered.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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

    ``nodes`` counts every state entered, the root included; dead children,
    children that fail the counting bound and children skipped on a closed
    branching cell (module docstring) are never entered and not counted; a
    cell the theorems decide is 1 node (:func:`search_avoiding`), and a
    search whose set-up runs out of time is 0.
    ``prunes`` maps a reason to how often it fired: ``counting`` (a
    generated child fails the counting bound; on a SAT cell this also
    counts the failing siblings generated after the winning branch),
    ``thin_side`` (a candidate thin side none of whose wide sides can pass
    the counting bound, refuted before they are generated; its children
    are not counted as ``counting`` prunes), ``no_candidates`` (no live
    rectangle through the first uncovered cell leaves a child that passes
    the bound, counted on a state entered and on each child its parent
    skips on a closed branching cell), ``abort_timeout`` and
    ``abort_nodes`` (a budget ran out; the verdict is INCONCLUSIVE).  A
    cell the theorems decide records no prune.
    ``millis`` is the wall-clock time of the search.
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
        for entry in unions:
            union, reach, total = entry
            size = len(union)
            first = max(0, low - size - rest)
            if not first:
                grown.append(entry)  # no line of this class: the union as it is
                first = 1
            for k in range(first, min(len(lines), high - size) + 1):
                grown.append((union + lines[:k], reach | masks[k], total + k * gain))
        unions = grown
    return unions


def _until(deadline: float | None, items: range) -> Iterable[int]:
    """``items``; with a ``deadline``, checked before each item, raising
    ``_Abort("timeout")`` once it has passed."""
    if deadline is None:
        return items

    def checked() -> Iterator[int]:
        for item in items:
            if time.monotonic() > deadline:
                raise _Abort("timeout")
            yield item
    return checked()


class _Searcher:
    def __init__(self, n: int, m: int, p: int, deadline: float | None, node_limit: int | None):
        self.n = n
        self.m = m
        self.p = p
        # Lines 0..n-1 are the rows and n..2n-1 the columns; shifting a
        # line's cells down by shift[x] aligns it with the rest of its side.
        # column 0 is the sum of 2^(r*n) over the rows, built by doubling the
        # rows it holds, never past row n-1: a division of n^2-bit numbers
        # is slower than linear.  Each doubling, and each of the 2n line
        # masks (time and memory in n^3), is checked against the deadline,
        # as the search checks each node
        column = 1
        for k in _until(deadline, range((n - 1).bit_length())):
            # column holds rows 0..2^k-1
            column |= column << min(1 << k, n - (1 << k)) * n
        self.full = (1 << (n * n)) - 1
        self.mask = [((1 << n) - 1) << (r * n) for r in _until(deadline, range(n))]
        self.mask += [column << c for c in _until(deadline, range(n))]
        self.shift = [r * n for r in range(n)] + list(range(n))
        # cap[s][u]: w_L of a line with s uses left and u uncovered cells,
        # min(u, t * cap_L) written out (module docstring)
        t = p - 1
        self.cap = [
            [u if u <= t * s else t * (s - 1) for u in range(n + 1)]
            for s in _until(deadline, range(m + 1))
        ]
        self.deadline = deadline
        self.node_limit = node_limit
        self.nodes = 0
        self.prunes: Counter[str] = Counter()
        self.witness: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None

    def load(self, covered: int, used: list[int]) -> int:
        """Keep the state's per-line ``used``, ``counts`` (u_L) and ``caps``
        (the weights w_L = min(u_L, (p-1)*cap_L), module docstring; 0 on a
        line with no uncovered cell) on the searcher, counted from scratch,
        and return the sum of the weights."""
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
        of w_L.  ``cols`` names columns by line id, n..2n-1.

        The state is the one on the searcher (``load``), with ``total`` its
        sum of w_L, and must be live: every line with an uncovered cell
        has a use left.  A dead child (one that would leave a line with no
        use left and an uncovered cell) is never built; a child that fails
        the counting bound is counted as a ``counting`` prune and never
        built either, and a thin side whose every child would fail it is
        one ``thin_side`` prune (module docstring)."""
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
        found, failed, thin_sides = [], 0, 0
        # Rows are the thin side (at most p-1 of them, any columns), then
        # columns are (at most p-1 of them, under at least p rows).  Once
        # the thin side is fixed, its lines on their last use must be
        # covered in full: that forces in, at full length, every wide class
        # meeting their uncovered cells.  A wide line on its last use may
        # join only if the thin side spans all its uncovered cells.
        #
        # The child's counting bound needs its |new| and the change of
        # sum(w_L) over the rectangle's lines.  Each new cell lies on one
        # thin line, so |new| is the thin lines' new cells; a wide line
        # gains new cells where it meets the thin side, the same number
        # on every line of a class, so a wide class's weight change per
        # line is fixed with the thin side and summed along with its
        # prefixes.
        # Before any wide side is drawn, the thin side is refuted whole if
        # even its best wide side would fail (module docstring).
        #
        # Every candidate on the empty grid is some [0, a) x [0, b), and
        # transposing maps the empty grid to itself, so a <= b suffices
        # there: the rows are the thin side, and no more than the columns.
        orientations = ((rows, cols, 0), (cols, rows, thin_cap)) if covered else ((rows, cols, 0),)
        for thin, wide, low in orientations:
            thin_first, thin_classes = thin
            wide_first, wide_classes = wide
            # the wide side's first line joins every candidate; on its last
            # use the thin side must span its uncovered cells, so every thin
            # class meeting them joins at full length
            head, head_spans, free_thin = (thin_first,), mask[thin_first], thin_classes
            if used[wide_first] == last:
                first_left = uncov & mask[wide_first]
                free_thin = []
                for cls in thin_classes:
                    if first_left & cls[1][1]:
                        head += cls[0]
                        head_spans |= cls[1][-1]
                    else:
                        free_thin.append(cls)
            for extra, extra_spans, _ in _prefixes(free_thin, 0, thin_cap - len(head)):
                thin_lines = head + extra
                spans = head_spans | extra_spans
                # a thin line's new cells depend on the wide side: kept as
                # (its cells, its w_L by u_L after this use, u_L, w_L).
                # thin_best is the most their w_L can rise in all: after
                # this use a line brings at least one new cell and has s
                # uses left, so its w_L is at most min(u_L - 1, t*s)
                must, thin_counts, thin_best = 0, [], 0
                for x in thin_lines:
                    s, u = last - used[x], counts[x]
                    if not s:
                        must |= uncov & mask[x]
                    thin_counts.append((mask[x], cap[s], u, caps[x]))
                    thin_best += (u - 1 if u <= thin_cap * s else thin_cap * s) - caps[x]
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
                    # the best any wide side can do: the forced lines as
                    # they are, the thin lines at their best, and nothing
                    # from a free wide line, whose w_L falls by at least
                    # the k <= p-1 new cells it brings
                    forced_new = (live & reach).bit_count()
                    if not within_bound(left - forced_new, total + gain + thin_best):
                        thin_sides += 1
                        continue
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
        if thin_sides:
            self.prunes["thin_side"] += thin_sides
        found.sort(key=lambda cand: (
            min(len(cand[0]), len(cand[1])), -len(cand[0]) * len(cand[1]), cand[0], cand[1]
        ))
        return found

    def within_bound(self, uncovered: int, total: int) -> bool:
        """The counting bound: False when ``uncovered`` cells are more than
        ``total``, the sum of the weights w_L over all lines."""
        return uncovered <= total

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
        ``caps`` (the weights w_L) are on ``self``, with ``total`` their
        sum.  The counting bound is checked on the children as they are
        generated, not on the state entered: a state that fails it has no
        child that passes, so it is one node and one ``no_candidates``
        prune, and :func:`search_avoiding` hands over only roots where the
        guarantee theorem is silent.  ``nodes`` counts the states entered;
        a child whose branching cell is closed (module docstring) is
        skipped unentered and counted as the ``no_candidates`` prune it
        would record."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Abort("nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Abort("timeout")
        if covered == self.full:
            self.witness = list(chosen)
            return True
        uncov = ~covered & self.full
        used, counts, caps = self.used, self.counts, self.caps
        cands = self.candidates(covered, total)
        if not cands:
            self.prunes["no_candidates"] += 1
        n, m, cap, mask = self.n, self.m, self.cap, self.mask
        last, thin_cap = m - 1, self.p - 1
        for rows, cols, cell_mask, child_total in cands:
            # the child branches on the first cell of rest; when its row and
            # its column both get their last use there, each with more than
            # p-1 cells left, the child has no candidate (module docstring)
            rest = uncov & ~cell_mask
            r, c = divmod((rest & -rest).bit_length() - 1, n)
            c += n
            if (
                rest
                and used[r] + (r in rows) == last
                and used[c] + (c in cols) == last
                and (rest & mask[r]).bit_count() > thin_cap
                and (rest & mask[c]).bit_count() > thin_cap
            ):
                self.prunes["no_candidates"] += 1
                continue
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
    INCONCLUSIVE.  ``timeout`` is one wall-clock limit for the whole search,
    its set-up included.
    ``millis`` counts the certificate's build too.  With
    ``certificate=False`` no certificate is built, a SAT outcome's witness
    is None and ``millis`` is the time to decide the cell; verdict and
    stats are otherwise the same.
    """
    start = time.monotonic()
    n, m, p = params.n, params.m, params.p
    witness = None
    if p <= guaranteed_p(n, m):
        # the counting bound on the empty grid, the guarantee theorem: the
        # one place it is decided, so the DFS never sees such a root
        verdict, nodes, prunes = UNSAT, 1, {}
    elif p == 2:
        # n = 1 or n <= 2m-2: the block-circulant cover answers at the root
        verdict, nodes, prunes = SAT, 1, {}
        if certificate:
            witness = construct_block_circulant(n, m, p)
    else:
        deadline = start + params.timeout if params.timeout is not None else None
        searcher, aborted = None, {}
        try:
            searcher = _Searcher(n, m, p, deadline, params.node_limit)
            if searcher.search(0, [0] * (2 * n)):
                verdict = SAT
                if certificate:
                    witness = _witness_cover(n, searcher.witness)
            else:
                verdict = UNSAT
        except _Abort as abort:
            verdict, aborted = INCONCLUSIVE, {f"abort_{abort.reason}": 1}
        # a set-up that runs out of time leaves no searcher: no state entered
        nodes, prunes = (searcher.nodes, dict(searcher.prunes)) if searcher else (0, {})
        prunes.update(aborted)
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
