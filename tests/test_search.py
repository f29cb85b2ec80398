"""Avoidance search tests.

Verdicts for small cells are pinned against the closed-form regimes:
guaranteed cells must come back UNSAT, avoidable cells must produce a
certificate, and the open cell (4, 3, 2) is known SAT.  The whole n <= 5
table is pinned verdict by verdict, so a prune that loses a cover shows;
it is checked with the counting bound off as well, since the bound alone
refutes every guaranteed cell.
"""

import random
from collections import Counter
from itertools import combinations

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
    find_mono_biclique_brute,
    guaranteed_p,
    local_profile,
    search_avoiding,
    table_row_csv,
    threshold_table,
)
from shufflecover.search import _Searcher


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


def assert_certificate(outcome, n, m, p):
    cover = outcome.witness
    assert cover is not None
    assert cover.n_rows == cover.n_cols == n
    assert check_coverage(cover) is None
    assert local_profile(cover).local_width <= m
    assert all(r.min_side <= p - 1 for r in cover.rectangles)
    # independent check: the certificate really avoids K_{p,p}
    if p <= 6:
        assert find_mono_biclique_brute(cover, p) is None


def test_params_validate():
    with pytest.raises(ValueError):
        SearchParams(0, 1, 1)
    with pytest.raises(ValueError):
        SearchParams(2, 2, 2, timeout=0)
    with pytest.raises(ValueError):
        SearchParams(2, 2, 2, node_limit=0)


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
    out = run(4, 3, 2, node_limit=5)
    assert out.verdict == INCONCLUSIVE
    assert out.witness is None


def test_timeout_gives_inconclusive():
    # (6,4,2) is SAT only after tens of thousands of nodes
    out = run(6, 4, 2, timeout=0.001)
    assert out.verdict == INCONCLUSIVE


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


def reference_candidates(n, m, p, covered, row_used, col_used):
    """Every rectangle through the first uncovered cell whose thin side is
    at most p-1 and whose every line brings an uncovered cell, by brute
    force and without symmetry breaking, split into (live, dead)."""
    holes = {(r, c) for r in range(n) for c in range(n) if not covered >> (r * n + c) & 1}
    r0, c0 = min(holes)
    open_rows = sorted({r for r, _ in holes} - {r0})
    open_cols = sorted({c for _, c in holes} - {c0})
    live, dead = [], []
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
            if any(row_used[r] + 1 == m and any(x == r for x, _ in rest) for r in rows) or any(
                col_used[c] + 1 == m and any(y == c for _, y in rest) for c in cols
            ):
                dead.append((rows, cols))
            else:
                live.append((rows, cols))
    return live, dead


def canonical(rect, n, covered, row_used, col_used):
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
        return tuple(not covered >> (r * n + c) & 1 for c in range(n)), row_used[r]

    def col_key(c):
        return tuple(not covered >> (r * n + c) & 1 for r in range(n)), col_used[c]

    return squeeze(rows, row_key), squeeze(cols, col_key)


def test_candidates_match_brute_force_up_to_symmetry():
    # random walks through the cover space; at every state the generator
    # must return exactly one representative of each class of equivalent
    # live rectangles, sorted thin side first, then by area, and count one
    # dead_line node per class of equivalent dead ones
    rng = random.Random(20240601)
    states = 0
    while states < 300:
        n, m, p = rng.randint(2, 5), rng.randint(1, 3), rng.randint(2, 4)
        covered, row_used, col_used = 0, [0] * n, [0] * n
        while covered != (1 << (n * n)) - 1:
            searcher = _Searcher(n, m, p, None, None)
            got = searcher.candidates(covered, row_used, col_used)
            ref, dead = reference_candidates(n, m, p, covered, row_used, col_used)
            want = {canonical(rect, n, covered, row_used, col_used) for rect in ref}
            assert [(rows, cols) for rows, cols, _ in got] == sorted(
                want, key=lambda rc: (min(map(len, rc)), -len(rc[0]) * len(rc[1]), rc)
            ), (n, m, p, covered, row_used, col_used)
            dead_classes = {canonical(rect, n, covered, row_used, col_used) for rect in dead}
            assert searcher.nodes == searcher.prunes["dead_line"] == len(dead_classes)
            states += 1
            if not ref:
                break
            rows, cols = rng.choice(ref)
            for r in rows:
                row_used[r] += 1
                for c in cols:
                    covered |= 1 << (r * n + c)
            for c in cols:
                col_used[c] += 1


def test_table_row_csv_shape():
    row = TableRow(n=3, m=2, p=2, regime="guaranteed", verdict=UNSAT, nodes=17, millis=1.25)
    assert CSV_HEADER == "n,m,p,regime,verdict,nodes,millis"
    assert table_row_csv(row) == "3,2,2,guaranteed,UNSAT,17,1"


def test_stats_record_prune_reasons():
    out = run(4, 2, 2)
    assert out.stats.millis >= 0
    assert sum(out.stats.prunes.values()) > 0


def test_counting_bound_at_root_is_the_theorem():
    # on the empty grid the bound is the guarantee theorem, cell for cell
    cells = 0
    for n in range(1, 25):
        for m in range(1, n + 2):
            for p in range(1, n + 2):
                searcher = _Searcher(n, m, p, None, None)
                fires = not searcher.room_left(0, [0] * n, [0] * n)
                assert fires == (p <= guaranteed_p(n, m)), (n, m, p)
                cells += 1
    assert cells == 5524


def test_n5_verdicts_without_counting_bound(monkeypatch):
    # UNSAT verdicts rest on the bound; with it off the exhaustive search
    # alone must still reach every pinned verdict
    monkeypatch.setattr(_Searcher, "room_left", lambda self, *state: True)
    for (n, m), verdicts in N5_VERDICTS.items():
        for p, letter in enumerate(verdicts, start=1):
            out = run(n, m, p)
            assert out.verdict == {"S": SAT, "U": UNSAT}[letter], (n, m, p)
            assert "counting" not in out.stats.prunes


def test_counting_bound_prunes_only_dead_states():
    # random walks through the cover space as in the candidate test; at
    # every state the bound rejects, the search with the bound off must
    # find no completion
    rng = random.Random(20240602)
    states = fired = 0
    while states < 400:
        n, m, p = rng.randint(2, 4), rng.randint(1, 3), rng.randint(2, 4)
        covered, row_used, col_used = 0, [0] * n, [0] * n
        while covered != (1 << (n * n)) - 1:
            states += 1
            if not _Searcher(n, m, p, None, None).room_left(covered, row_used, col_used):
                fired += covered != 0
                unbounded = _Searcher(n, m, p, None, None)
                unbounded.room_left = lambda *state: True
                assert not unbounded.dfs(covered, list(row_used), list(col_used), []), (
                    n, m, p, covered, row_used, col_used
                )
            ref, _ = reference_candidates(n, m, p, covered, row_used, col_used)
            if not ref:
                break
            rows, cols = rng.choice(ref)
            for r in rows:
                row_used[r] += 1
                for c in cols:
                    covered |= 1 << (r * n + c)
            for c in cols:
                col_used[c] += 1
    # the bound fires below the root often enough for this to test it
    assert fired >= 20
