"""Avoidance search tests.

Verdicts for small cells are pinned against the closed-form regimes:
guaranteed cells must come back UNSAT, avoidable cells must produce a
certificate, and the open cell (4, 3, 2) is known SAT.  The whole n <= 5
table is pinned verdict by verdict, so a prune that loses a cover shows;
it is checked with the counting bound off as well, since the bound alone
refutes every guaranteed cell.  ``search_avoiding`` answers every cell
the theorems decide (p <= guaranteed_p, and the p = 2 row) at the root,
so the tests that pin the DFS's order, verdicts or budgets drive
``_Searcher`` directly or use undecided cells with p >= 3.
"""

import hashlib
import operator
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

from shufflecover import (
    INCONCLUSIVE,
    SAT,
    UNSAT,
    CSV_HEADER,
    SearchParams,
    TableRow,
    avoidance_threshold,
    check_coverage,
    cover_to_obj,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    guaranteed_p,
    local_profile,
    search_avoiding,
    table_row_csv,
    threshold_table,
)
from shufflecover import search
from shufflecover.search import SearchOutcome, SearchStats, _Searcher, _prefixes, _witness_cover


# threshold_table(5) verdicts for p = 1..6, by (n, m); S = SAT, U = UNSAT
N5_VERDICTS = {
    (1, 1): "USSSSS",
    (1, 2): "USSSSS",
    (1, 3): "USSSSS",
    (1, 4): "USSSSS",
    (1, 5): "USSSSS",
    (2, 1): "UUSSSS",
    (2, 2): "USSSSS",
    (2, 3): "USSSSS",
    (2, 4): "USSSSS",
    (2, 5): "USSSSS",
    (3, 1): "UUUSSS",
    (3, 2): "UUSSSS",
    (3, 3): "USSSSS",
    (3, 4): "USSSSS",
    (3, 5): "USSSSS",
    (4, 1): "UUUUSS",
    (4, 2): "UUSSSS",
    (4, 3): "USSSSS",
    (4, 4): "USSSSS",
    (4, 5): "USSSSS",
    (5, 1): "UUUUUS",
    (5, 2): "UUUSSS",
    (5, 3): "UUSSSS",
    (5, 4): "USSSSS",
    (5, 5): "USSSSS",
}


def run(n, m, p, **kw):
    return search_avoiding(SearchParams(n, m, p, **kw))


def run_dfs(n, m, p):
    """The DFS alone on the cell, with no budget: what ``search_avoiding``
    runs on every cell it does not answer at the root."""
    searcher = _Searcher(n, m, p, None, None)
    found = searcher.search(0, [0] * (2 * n))
    witness = _witness_cover(n, searcher.witness) if found else None
    stats = SearchStats(searcher.nodes, dict(searcher.prunes))
    return SearchOutcome(SAT if found else UNSAT, witness, stats)


def assert_certificate(outcome, n, m, p):
    cover = outcome.witness
    assert cover is not None
    assert cover.n_rows == cover.n_cols == n
    assert check_coverage(cover) is None
    assert local_profile(cover).local_width <= m
    assert all(r.min_side <= p - 1 for r in cover.rectangles)
    assert find_mono_biclique_fast(cover, p) is None
    # independent check, within the brute detector's guards: the
    # certificate really avoids K_{p,p}
    if p <= 6 and n <= 24:
        assert find_mono_biclique_brute(cover, p) is None


def test_params_validate():
    with pytest.raises(ValueError):
        SearchParams(0, 1, 1)
    with pytest.raises(ValueError):
        SearchParams(2, 2, 2, timeout=0)
    with pytest.raises(ValueError):
        SearchParams(2, 2, 2, node_limit=0)
    # a bool or a float is not a size: each is refused before any search
    for args in ((True, 2, 2), (2.5, 2, 2), (3, True, 2), (3, 2, 2.0)):
        with pytest.raises(ValueError, match=r"n, m, p must be positive integers, got"):
            SearchParams(*args)
    for limit in (True, 1.5):
        with pytest.raises(ValueError, match=r"node_limit must be a positive integer"):
            SearchParams(2, 2, 2, node_limit=limit)
    # a NaN deadline never passes, and a bool or a string is no duration
    for timeout in (-1, 0.0, float("nan"), float("inf"), -float("inf"), True, False, "1", 10**400):
        with pytest.raises(ValueError, match=r"timeout must be a finite positive number"):
            SearchParams(2, 2, 2, timeout=timeout)
    for timeout in (1, 0.5, 1e-9):
        assert SearchParams(2, 2, 2, timeout=timeout).timeout == timeout


def test_single_color_cell_is_unsat():
    # m=1 means one rectangle must swallow a whole line: impossible for p <= n
    out = run(2, 1, 2)
    assert out.verdict == UNSAT
    assert out.witness is None
    assert out.stats.nodes >= 1


def test_trivial_sat_when_p_exceeds_n():
    out = run(2, 1, 3)
    assert out.verdict == SAT
    assert_certificate(out, 2, 1, 3)
    # one full square does it
    assert len(out.witness.rectangles) == 1


def test_avoidable_cell_sat():
    out = run(2, 2, 2)
    assert out.verdict == SAT
    assert_certificate(out, 2, 2, 2)


def test_guaranteed_cell_unsat():
    assert run(4, 2, 2).verdict == UNSAT
    assert run(3, 2, 2).verdict == UNSAT


def test_open_cell_four_three_two_is_sat():
    out = run(4, 3, 2)
    assert out.verdict == SAT
    assert_certificate(out, 4, 3, 2)


def test_deterministic_single_worker():
    a = run(4, 3, 2)
    b = run(4, 3, 2)
    assert a.verdict == b.verdict
    assert a.witness == b.witness
    assert a.stats.nodes == b.stats.nodes


def test_node_limit_gives_inconclusive():
    # (7,3,3) is SAT after 23 nodes
    out = run(7, 3, 3, node_limit=5)
    assert out.verdict == INCONCLUSIVE
    assert out.witness is None
    assert out.stats.prunes["abort_nodes"] == 1


def test_timeout_gives_inconclusive():
    # (11,4,3) is SAT only after 22,037 nodes, about 2 s
    out = run(11, 4, 3, timeout=0.001)
    assert out.verdict == INCONCLUSIVE
    assert out.stats.prunes["abort_timeout"] == 1


def test_setup_stops_at_the_deadline(monkeypatch):
    # the search's set-up checks the deadline once per step: the 3 doublings
    # that build column 0's 7 rows, the 2n line masks, then the m+1 rows of
    # the cap table.  A clock that passes the deadline after k of those
    # checks stops the set-up at the next one, before any state is entered;
    # once every check is in time, the root's own check stops the search at
    # 1 node
    n, m = 7, 3
    setup_checks = 3 + 2 * n + m + 1
    for k in (0, 1, n, 2 * n, setup_checks - 1, setup_checks):
        calls = []

        def clock():
            calls.append(None)
            # the first call is the search's start
            return 0.0 if len(calls) <= k + 1 else 10.0

        monkeypatch.setattr(search.time, "monotonic", clock)
        out = run(n, m, 3, timeout=1)
        assert out.verdict == INCONCLUSIVE and out.witness is None, k
        assert out.stats.nodes == (k == setup_checks), k
        assert out.stats.prunes == {"abort_timeout": 1}, k
        # the start, k checks in time, the one that stops, and the end
        assert len(calls) == k + 3, k


def test_large_grid_setup_stops_at_the_deadline():
    # (12000, 8000, 3) goes to the DFS, whose set-up builds line masks of
    # 144,000,000 bits; column 0 is built by doubling, in time about
    # linear in its size, and each doubling is checked against the deadline,
    # so the search stops early, before any state is entered
    start = time.monotonic()
    out = run(12000, 8000, 3, timeout=0.01)
    assert time.monotonic() - start < 1
    assert (out.verdict, out.stats.nodes, out.stats.prunes) == (INCONCLUSIVE, 0, {"abort_timeout": 1})


def test_column_mask_built_by_doubling():
    # column 0 holds exactly the first cell of each of the n rows, however
    # the doubling steps fall
    for n in range(1, 90):
        assert _Searcher(n, 1, 3, None, None).mask[n] == sum(1 << r * n for r in range(n)), n


def test_sat_verdicts_monotone_in_m():
    # more colors per line never hurts: SAT at m implies SAT at m+1
    for n in (3, 4):
        sat_seen = False
        for m in range(1, n + 1):
            verdict = run(n, m, 2).verdict
            assert verdict in (SAT, UNSAT)
            if sat_seen:
                assert verdict == SAT
            sat_seen = verdict == SAT


def k22_avoidable(n, m):
    """Whether the n x n grid has an m-local cover with no monochromatic
    K_{2,2}, from the short argument for p = 2 alone.

    Every rectangle has one row or one column, and merging two rectangles
    on the same line never raises a line's count.  So some cover, if any
    exists, has at most one rectangle per row and one per column, and cell
    (i, j) lies in row i's rectangle (X[i][j] = 1) or in column j's (0).
    Row i then sees its own rectangle and one per 0 in its row, column j
    its own and one per 1 in its column.  When n > m, a row of n zeros or a
    column of n ones would see n colors, so every row has at least n-m+1
    ones and every column at most m-1: n(n-m+1) <= n(m-1), which is
    n <= 2m-2.  When n <= m, one rectangle per row does it: that is n = 1
    for m = 1, and inside n <= 2m-2 for m >= 2.  For n > m with n <= 2m-2,
    the circulant X with n-m+1 ones per row meets both sums."""
    return n == 1 or n <= 2 * m - 2


def test_k22_row_answered_at_the_root():
    # every cell of the p = 2 row to n = 40, against the argument above
    sat = 0
    for n in range(1, 41):
        for m in range(1, n + 2):
            out = run(n, m, 2)
            if not k22_avoidable(n, m):
                assert out.verdict == UNSAT, (n, m)
                assert (out.stats.nodes, out.stats.prunes) == (1, {}), (n, m)
                continue
            assert out.verdict == SAT, (n, m)
            assert (out.stats.nodes, out.stats.prunes) == (1, {}), (n, m)
            assert_certificate(out, n, m, 2)
            sat += 1
    assert sat == 441
    # the DFS, which decides the row by search, agrees where it can run
    for n in range(1, 7):
        for m in range(1, n + 2):
            assert run_dfs(n, m, 2).verdict == (SAT if k22_avoidable(n, m) else UNSAT), (n, m)


def test_budgets_bound_only_the_dfs():
    # (10,7,2) is answered at the root, before the budgets are looked at;
    # the DFS left it INCONCLUSIVE at 3 s
    out = run(10, 7, 2, timeout=1e-9, node_limit=1)
    assert out.verdict == SAT
    assert_certificate(out, 10, 7, 2)
    # so is the guaranteed cell (60,2,3), which builds no search state
    out = run(60, 2, 3, timeout=1e-9, node_limit=1)
    assert (out.verdict, out.stats.nodes, out.stats.prunes) == (UNSAT, 1, {})


def test_dfs_exhausted_space_is_unsat(monkeypatch):
    # no square cell above guaranteed_p is UNSAT, so with the theorem off
    # two guaranteed cells reach the DFS, which must refute them itself:
    # at the root both thin sides fail, and no candidate is left
    monkeypatch.setattr(search, "guaranteed_p", lambda n, m: 0)
    for n in (5, 6):
        out = run(n, 2, 3)
        assert (out.verdict, out.witness) == (UNSAT, None), n
        assert out.stats.nodes == 1, n
        assert out.stats.prunes == {"thin_side": 2, "no_candidates": 1}, n


def test_decided_cells_build_no_searcher(monkeypatch):
    # every cell the theorems decide is answered before any search state
    # exists, so with _Searcher unusable each still gets its answer
    def no_searcher(*args):
        raise AssertionError(f"a decided cell built a _Searcher{args[:3]}")

    monkeypatch.setattr(search, "_Searcher", no_searcher)
    unsat = sat = 0
    for n in range(1, 41):
        for m in range(1, n + 2):
            bound = guaranteed_p(n, m)
            for p in sorted({*range(1, bound + 1), 2}):
                out = run(n, m, p)
                if p <= bound:
                    want, unsat = (UNSAT, 1, {}), unsat + 1
                else:
                    want, sat = (SAT, 1, {}), sat + 1
                assert (out.verdict, out.stats.nodes, out.stats.prunes) == want, (n, m, p)
    assert sat == 441
    assert unsat == sum(guaranteed_p(n, m) for n in range(1, 41) for m in range(1, n + 2))


def test_threshold_table_checks_limits_at_call():
    # raised before any row is asked for, so a caller prints nothing first
    for args in ((0,), (-1,), (3, 0), (3, -1), (3, None, 0), (3, 2, -2)):
        with pytest.raises(ValueError):
            threshold_table(*args)
    for args in ((2.5,), (True,), (3, 2.0), (3, None, False)):
        with pytest.raises(ValueError, match=r"_max must be a positive integer, got"):
            threshold_table(*args)
    for budget in ({"timeout_per_cell": 0}, {"node_limit": 0}, {"node_limit": 2.5}):
        with pytest.raises(ValueError):
            threshold_table(3, **budget)


def test_threshold_table_matches_regimes():
    rows = list(threshold_table(3))
    # every cell up to (3, 3, 4) exactly once
    assert len(rows) == 3 * 3 * 4
    for row in rows:
        if row.regime == "guaranteed":
            assert row.p <= guaranteed_p(row.n, row.m)
            assert row.verdict == UNSAT
        elif row.regime == "avoidable":
            assert row.p > avoidance_threshold(row.n, row.m)
            assert row.verdict == SAT
        else:
            assert row.verdict in (SAT, UNSAT)


def test_table_rows_decide_as_search_does(monkeypatch):
    rows = list(threshold_table(6))
    assert len(rows) == 6 * 6 * 7
    for row in rows:
        out = run(row.n, row.m, row.p)
        assert (row.verdict, row.nodes) == (out.verdict, out.stats.nodes), row

    # the table prints no certificate, so it builds none; each cell goes
    # through search_avoiding, looked up at call time, so a wrapper put on
    # it sees every cell
    def build(*args):
        raise AssertionError("the table built a certificate")

    calls = []
    decide = search.search_avoiding

    def wrapped(*args, **kwargs):
        calls.append(args[0])
        return decide(*args, **kwargs)

    monkeypatch.setattr(search, "construct_block_circulant", build)
    monkeypatch.setattr(search, "_witness_cover", build)
    monkeypatch.setattr(search, "search_avoiding", wrapped)
    assert [(row.verdict, row.nodes) for row in threshold_table(6)] == [
        (row.verdict, row.nodes) for row in rows
    ]
    assert [(c.n, c.m, c.p) for c in calls] == [(row.n, row.m, row.p) for row in rows]


def test_n7_public_table_pinned():
    # what `table --n-max 7 | cut -d, -f1-5` prints; the nodes column is
    # pinned by its total, which moves when the DFS or the root answers do
    rows = list(threshold_table(7))
    lines = [CSV_HEADER, *map(table_row_csv, rows)]
    text = "".join(",".join(line.split(",")[:5]) + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3eb4eda6ae818467cfb1d69a62c8f517fa7a52f6a3de3c7164ffb84f5805c595"
    )
    assert sum(row.nodes for row in rows) == 1432


def test_n5_verdict_table_pinned():
    assert len(N5_VERDICTS) * 6 == 150
    for (n, m), verdicts in N5_VERDICTS.items():
        for p, letter in enumerate(verdicts, start=1):
            out = run(n, m, p)
            assert out.verdict == {"S": SAT, "U": UNSAT}[letter], (n, m, p)
            if out.verdict == SAT:
                assert_certificate(out, n, m, p)


def _subsets_with(first, others):
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            yield tuple(sorted((first,) + extra))


def reference_candidates(n, m, p, covered, used):
    """Every live rectangle through the first uncovered cell whose thin
    side is at most p-1 and whose every line brings an uncovered cell, by
    brute force and without symmetry breaking.  A rectangle is dead when it
    uses a line's last slot while that line keeps an uncovered cell.
    ``used`` counts the rows' uses, then the columns'."""
    holes = {(r, c) for r in range(n) for c in range(n) if not covered >> (r * n + c) & 1}
    r0, c0 = min(holes)
    open_rows = sorted({r for r, _ in holes} - {r0})
    open_cols = sorted({c for _, c in holes} - {c0})
    live = []
    for rows in _subsets_with(r0, open_rows):
        for cols in _subsets_with(c0, open_cols):
            if min(len(rows), len(cols)) > p - 1:
                continue
            new = {(r, c) for r in rows for c in cols} & holes
            if any(not any(r == x for x, _ in new) for r in rows):
                continue
            if any(not any(c == y for _, y in new) for c in cols):
                continue
            rest = holes - new
            dead = any(used[r] + 1 == m and any(x == r for x, _ in rest) for r in rows) or any(
                used[n + c] + 1 == m and any(y == c for _, y in rest) for c in cols
            )
            if not dead:
                live.append((rows, cols))
    return live


def canonical(rect, n, covered, used):
    """The rectangle with each class of interchangeable lines (same
    uncovered cells, same use count) replaced by its lowest members, and
    transposed to rows <= cols on the empty grid."""
    rows, cols = rect
    if not covered and len(rows) > len(cols):
        rows, cols = cols, rows

    def squeeze(lines, key):
        out = []
        for k, count in Counter(map(key, lines)).items():
            out += [y for y in range(n) if key(y) == k][:count]
        return tuple(sorted(out))

    def row_key(r):
        return tuple(not covered >> (r * n + c) & 1 for c in range(n)), used[r]

    def col_key(c):
        return tuple(not covered >> (r * n + c) & 1 for r in range(n)), used[n + c]

    return squeeze(rows, row_key), squeeze(cols, col_key)


def walk_states(seed, count, ns, ms=range(1, 4), ps=range(2, 5)):
    """States (n, m, p, covered, used) along random walks through the cover
    space, each step a random live rectangle; a new walk starts, on a cell
    drawn from ``ns`` x ``ms`` x ``ps``, while fewer than ``count`` states
    have been given.  ``used`` counts each line's uses: the rows are lines
    0..n-1, the columns lines n..2n-1."""
    rng = random.Random(seed)
    states = 0
    while states < count:
        n, m, p = rng.choice(ns), rng.choice(ms), rng.choice(ps)
        covered, used = 0, [0] * (2 * n)
        while covered != (1 << (n * n)) - 1:
            yield n, m, p, covered, list(used)
            states += 1
            ref = reference_candidates(n, m, p, covered, used)
            if not ref:
                break
            rows, cols = rng.choice(ref)
            for r in rows:
                used[r] += 1
                for c in cols:
                    covered |= 1 << (r * n + c)
            for c in cols:
                used[n + c] += 1


def test_candidates_match_brute_force_up_to_symmetry(monkeypatch):
    # with the counting bound off, at every state the generator must return
    # exactly one representative of each class of equivalent live
    # rectangles, sorted thin side first, then by area, and never build (or
    # count) a dead one
    monkeypatch.setattr(_Searcher, "within_bound", lambda self, *counts: True)
    for n, m, p, covered, used in walk_states(20240601, 300, range(2, 6)):
        searcher = _Searcher(n, m, p, None, None)
        got = searcher.candidates(covered, searcher.load(covered, used))
        ref = reference_candidates(n, m, p, covered, used)
        want = {canonical(rect, n, covered, used) for rect in ref}
        # candidates name columns by line id, n + column
        assert [(rows, tuple(c - n for c in cols)) for rows, cols, *_ in got] == sorted(
            want, key=lambda rc: (min(map(len, rc)), -len(rc[0]) * len(rc[1]), rc)
        ), (n, m, p, covered, used)
        assert searcher.nodes == 0
        assert not searcher.prunes


def bounded_and_filtered(n, m, p, covered, used):
    """(searcher, got, every, kept) at the state: ``got`` is what the
    searcher's ``candidates`` returns with the bound on, ``every`` what it
    returns with the bound off, and ``kept`` the children of ``every``
    whose from-scratch count (``line_counts``) passes the bound, each with
    that count's sum of w_L."""
    searcher = _Searcher(n, m, p, None, None)
    got = searcher.candidates(covered, searcher.load(covered, used))
    unbounded = _Searcher(n, m, p, None, None)
    unbounded.within_bound = lambda *counts: True
    every = unbounded.candidates(covered, unbounded.load(covered, used))
    kept = []
    for rows, cols, cell_mask, _ in every:
        child_used = list(used)
        for x in rows + cols:
            child_used[x] += 1
        child_covered = covered | cell_mask
        _, _, child_total = line_counts(n, m, p, child_covered, child_used)
        holes = n * n - bin(child_covered).count("1")
        if searcher.within_bound(holes, child_total):
            kept.append((rows, cols, cell_mask, child_total))
    return searcher, got, every, kept


def test_candidates_drop_exactly_the_children_failing_the_bound():
    # with the bound on, the generator returns the bound-off list, in the
    # same order, less each child whose from-scratch count fails the bound,
    # and each child kept carries its sum of w_L.  Each failing child is
    # one counting prune, unless the thin side it was drawn under was
    # refuted whole first: that is one thin_side prune for all its children
    dropped = 0
    for n, m, p, covered, used in walk_states(20240605, 400, range(2, 6)):
        searcher, got, every, kept = bounded_and_filtered(n, m, p, covered, used)
        state = (n, m, p, covered, used)
        assert got == kept, state
        failing = len(every) - len(kept)
        counting, thin_sides = searcher.prunes["counting"], searcher.prunes["thin_side"]
        assert set(searcher.prunes) <= {"counting", "thin_side"}, state
        assert counting <= failing and (counting == failing or thin_sides), state
        assert searcher.nodes == 0
        dropped += failing
    # the bound rejects children often enough for this to test it
    assert dropped >= 200


def test_thin_side_cut_drops_only_failing_children():
    # on grids of 6 to 8 lines with p = 3 or 4, where a thin side holds up
    # to three lines, a whole thin side is cut often; the list must still
    # be exactly the bound-off list less the children whose from-scratch
    # count fails the bound
    fired = 0
    for n, m, p, covered, used in walk_states(20240608, 80, range(6, 9), range(2, 5), range(3, 5)):
        searcher, got, _, kept = bounded_and_filtered(n, m, p, covered, used)
        assert got == kept, (n, m, p, covered, used)
        fired += searcher.prunes["thin_side"]
    assert fired >= 70


def test_prefixes_match_product_definition():
    # the size-bounded enumeration yields what filtering the whole product
    # of prefix lengths yields, in the same order, each union with the
    # union of its lines' cells and the sum of their gains
    rng = random.Random(20240604)
    for _ in range(200):
        lines = rng.sample(range(12), rng.randint(0, 8))
        cuts = sorted(rng.sample(range(1, len(lines)), rng.randint(0, max(0, len(lines) - 1))))
        classes = [tuple(lines[i:j]) for i, j in zip([0] + cuts, cuts + [len(lines)]) if i < j]
        cells = {x: rng.getrandbits(16) for x in lines}
        gains = [rng.randint(-3, 3) for _ in classes]
        records = []
        for cls, gain in zip(classes, gains):
            masks = [0]
            for x in cls:
                masks.append(masks[-1] | cells[x])
            records.append((cls, masks, gain))
        for low in range(-1, len(lines) + 2):
            for high in range(low, len(lines) + 2):
                want = []
                for lengths in product(*(range(len(cls) + 1) for cls in classes)):
                    if low <= sum(lengths) <= high:
                        union = tuple(x for cls, k in zip(classes, lengths) for x in cls[:k])
                        reach = 0
                        for x in union:
                            reach |= cells[x]
                        want.append((union, reach, sum(map(operator.mul, lengths, gains))))
                assert _prefixes(records, low, high) == want, (classes, low, high)


@pytest.mark.parametrize(
    "cell, nodes, prunes",
    [
        ((6, 4, 2), 13, {"counting": 25, "thin_side": 3}),
        ((7, 3, 3), 23, {"counting": 107, "thin_side": 48, "no_candidates": 12}),
    ],
    ids=["6,4,2", "7,3,3"],
)
def test_search_order_pinned(cell, nodes, prunes):
    # node and prune counts lock the DFS order, and with it the certificate
    out = run_dfs(*cell)
    assert out.verdict == SAT
    assert_certificate(out, *cell)
    assert out.stats.nodes == nodes
    assert out.stats.prunes == prunes


def test_table_row_csv_shape():
    row = TableRow(n=3, m=2, p=2, regime="guaranteed", verdict=UNSAT, nodes=17, millis=1.25)
    assert CSV_HEADER == "n,m,p,regime,verdict,nodes,millis"
    assert table_row_csv(row) == "3,2,2,guaranteed,UNSAT,17,1"


def test_stats_record_prune_reasons():
    # (4,2,3) goes to the DFS, which refutes one thin side
    out = run(4, 2, 3)
    assert out.stats.millis >= 0
    assert sum(out.stats.prunes.values()) > 0


def bound_fires(n, m, p, covered, used):
    """Whether the state (covered, used), counted from scratch, fails the
    counting bound."""
    searcher = _Searcher(n, m, p, None, None)
    uncovered = n * n - bin(covered).count("1")
    return not searcher.within_bound(uncovered, searcher.load(covered, used))


def test_counting_bound_at_root_is_the_theorem():
    # on the empty grid the bound is the guarantee theorem, cell for cell,
    # and search_avoiding refutes each guaranteed cell at the root, in one
    # node
    cells = refuted = 0
    for n in range(1, 25):
        for m in range(1, n + 2):
            for p in range(1, n + 2):
                fires = bound_fires(n, m, p, 0, [0] * (2 * n))
                assert fires == (p <= guaranteed_p(n, m)), (n, m, p)
                cells += 1
                if fires:
                    out = run(n, m, p)
                    assert out.verdict == UNSAT, (n, m, p)
                    assert (out.stats.nodes, out.stats.prunes) == (1, {}), (n, m, p)
                    refuted += 1
    assert cells == 5524
    assert refuted == sum(guaranteed_p(n, m) for n in range(1, 25) for m in range(1, n + 2))


def test_dfs_refutes_a_state_failing_the_bound_in_one_node():
    # the DFS does not check the bound on the state it enters, only on the
    # children it generates; a state that fails it has no child that
    # passes (a wide line brings k <= p-1 new cells and its weight w_L falls
    # by at least k), so a guaranteed cell driven through the DFS is still
    # refuted in one node, with no candidate at the root
    for n in range(1, 13):
        for m in range(1, n + 2):
            for p in range(1, guaranteed_p(n, m) + 1):
                out = run_dfs(n, m, p)
                assert (out.verdict, out.stats.nodes) == (UNSAT, 1), (n, m, p)
                assert out.stats.prunes["no_candidates"] == 1, (n, m, p)
                assert set(out.stats.prunes) <= {"counting", "thin_side", "no_candidates"}
    assert run_dfs(6, 2, 3).stats.prunes == {"thin_side": 2, "no_candidates": 1}


def test_n5_verdicts_without_counting_bound(monkeypatch):
    # UNSAT verdicts rest on the bound; with it off the exhaustive search
    # alone must still reach every pinned verdict
    monkeypatch.setattr(_Searcher, "within_bound", lambda self, *counts: True)
    for (n, m), verdicts in N5_VERDICTS.items():
        for p, letter in enumerate(verdicts, start=1):
            out = run_dfs(n, m, p)
            assert out.verdict == {"S": SAT, "U": UNSAT}[letter], (n, m, p)
            assert "counting" not in out.stats.prunes


def test_counting_bound_prunes_only_dead_states():
    # at every state the bound rejects, the search with the bound off must
    # find no completion
    fired = 0
    for n, m, p, covered, used in walk_states(20240602, 400, range(2, 5)):
        if bound_fires(n, m, p, covered, used):
            fired += covered != 0
            bounded = _Searcher(n, m, p, None, None)
            assert not bounded.search(covered, used), (n, m, p, covered, used)
            assert bounded.nodes == 1, (n, m, p, covered, used)
            unbounded = _Searcher(n, m, p, None, None)
            unbounded.within_bound = lambda *counts: True
            assert not unbounded.search(covered, used), (n, m, p, covered, used)
    # the bound fires below the root often enough for this to test it
    assert fired >= 20


def test_weights_refute_only_dead_states():
    # w_L = min(u_L, (p-1)*cap_L) fires on states where (p-1)*cap_L alone
    # does not, never the other way round; at each such state the search
    # with the bound off must find no completion
    sharper = 0
    for n, m, p, covered, used in walk_states(7, 2000, range(3, 6)):
        counts, _, _ = line_counts(n, m, p, covered, used)
        caps = [(m - k) - (u > (p - 1) * (m - k)) if u else 0 for k, u in zip(used, counts)]
        uncovered = sum(counts[:n])
        weighted, capped = bound_fires(n, m, p, covered, used), uncovered > (p - 1) * sum(caps)
        assert weighted or not capped, (n, m, p, covered, used)
        if weighted and not capped:
            unbounded = _Searcher(n, m, p, None, None)
            unbounded.within_bound = lambda *counts: True
            assert not unbounded.search(covered, used), (n, m, p, covered, used)
            sharper += 1
    assert sharper >= 20


def line_counts(n, m, p, covered, used):
    """(counts, caps, total) of the state (covered, used), each line counted
    from scratch: ``counts`` holds u_L, its uncovered cells, and ``caps``
    its weight w_L = min(u_L, (p-1)*cap_L), where s_L = m - used_L uses are
    left and cap_L = s_L - [u_L > (p-1)*s_L]; ``total`` is the sum of the
    weights.  Rows are lines 0..n-1 and columns lines n..2n-1."""
    holes = [[not covered >> (r * n + c) & 1 for c in range(n)] for r in range(n)]
    counts = [sum(row) for row in holes] + [sum(row[c] for row in holes) for c in range(n)]
    caps = []
    for k, u in zip(used, counts):
        cap = (m - k) - (u > (p - 1) * (m - k))
        caps.append(min(u, (p - 1) * cap))
    return counts, caps, sum(caps)


def recount(n, m, p, chosen):
    """(covered, used, counts, caps, total) of the state the ``chosen``
    rectangles reach from the empty grid, counted from scratch by
    ``line_counts``; ``chosen`` names columns by line id, as ``used`` does."""
    covered, used = 0, [0] * (2 * n)
    for rows, cols in chosen:
        for x in rows + cols:
            used[x] += 1
        for r in rows:
            for c in cols:
                covered |= 1 << (r * n + c - n)
    return (covered, used, *line_counts(n, m, p, covered, used))


def checked_search(n, m, p):
    """Search the cell, asserting on entry of every state that the per-line
    counts handed down to it equal a recount; return the nodes entered."""
    searcher = _Searcher(n, m, p, None, None)

    def dfs(covered, total, chosen):
        handed_down = (covered, searcher.used, searcher.counts, searcher.caps, total)
        assert handed_down == recount(n, m, p, chosen), (n, m, p, chosen)
        return _Searcher.dfs(searcher, covered, total, chosen)

    searcher.dfs = dfs
    searcher.search(0, [0] * (2 * n))
    return searcher.nodes


def test_handed_down_counts_match_recount():
    # each parent updates used, counts and caps on its rectangle's lines
    # only, and restores them after the child; every state entered must
    # still see exactly what counting it from scratch gives
    cells = [(n, m, p) for n in range(1, 6) for m in range(1, 6) for p in range(1, 7)]
    cells += [(6, 4, 2), (7, 3, 3)]
    nodes = [checked_search(*cell) for cell in cells]
    assert nodes[-2:] == [13, 23]


def branching_cell_closed(n, m, p, covered, used):
    """Whether the first uncovered cell of the state lies on a row and a
    column that both have one use left and each keep more than p-1
    uncovered cells: the one rectangle through it would have to hold all of
    both lines' uncovered cells, so no candidate exists.  A covered grid
    has no such cell."""
    holes = [(r, c) for r in range(n) for c in range(n) if not covered >> (r * n + c) & 1]
    if not holes:
        return False
    r, c = holes[0]
    row = sum(not covered >> (r * n + y) & 1 for y in range(n))
    col = sum(not covered >> (x * n + c) & 1 for x in range(n))
    return used[r] == m - 1 == used[n + c] and min(row, col) > p - 1


def test_closed_branching_cell_has_no_candidates():
    # a state whose own branching cell is closed this way gets no
    # candidate, and no thin side or child is refuted on the way: the one
    # no_candidates prune it would record is all a parent that skips it
    # records in its place
    fired = 0
    for n, m, p, covered, used in walk_states(20240609, 400, range(5, 9), range(2, 5), range(2, 5)):
        if branching_cell_closed(n, m, p, covered, used):
            searcher = _Searcher(n, m, p, None, None)
            assert searcher.candidates(covered, searcher.load(covered, used)) == []
            assert not searcher.prunes, (n, m, p, covered, used)
            fired += 1
    assert fired >= 20


def test_no_closed_branching_cell_is_entered():
    # a parent skips each child whose branching cell is closed, so the
    # search never enters such a state
    for n, m, p in [(7, 3, 3), (9, 4, 3), (6, 4, 2)]:
        searcher = _Searcher(n, m, p, None, None)

        def dfs(covered, total, chosen):
            assert not branching_cell_closed(n, m, p, covered, searcher.used), (n, m, p, chosen)
            return _Searcher.dfs(searcher, covered, total, chosen)

        searcher.dfs = dfs
        assert searcher.search(0, [0] * (2 * n))


def test_dfs_census_pinned():
    # verdict, prune tallies and certificate of every cell that reaches the
    # DFS with n <= 8 (p >= 3 above guaranteed_p), and of (9,4,3) and
    # (10,4,3); a prune that only saves nodes leaves the digest as it is.
    # A sharper bound moves the prune tallies but no verdict or certificate,
    # so verdicts and certificates are pinned on their own as well
    cells = [
        (n, m, p)
        for n in range(1, 9)
        for m in range(1, n + 2)
        for p in range(3, n + 2)
        if p > guaranteed_p(n, m)
    ]
    cells += [(9, 4, 3), (10, 4, 3)]
    digest, answers, nodes = hashlib.sha256(), hashlib.sha256(), 0
    for cell in cells:
        out = run(*cell)
        nodes += out.stats.nodes
        witness = cover_to_obj(out.witness) if out.witness else None
        digest.update(repr((cell, out.verdict, sorted(out.stats.prunes.items()), witness)).encode())
        answers.update(repr((cell, out.verdict, witness)).encode())
    assert len(cells) == 171
    assert digest.hexdigest() == "5cdbe194bafc2586b040b66b12ce2f2b1566067cff930c6bd196dc62be829a81"
    assert answers.hexdigest() == "dd394500b8525d788fe863f9fb685c8b0d1c5a416ec5b2634a9ac865fa59c174"
    assert nodes == 1303
