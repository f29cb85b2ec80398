"""Acceptance suite: eleven criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Each criterion asserts its own wall-clock budget, so a pass
also certifies the stated performance.
"""

import functools
import math
import random
import time
from itertools import combinations

from shufflecover import (
    GenerationFailed,
    KPartiteCover,
    Rectangle,
    CliqueFamily,
    SAT,
    UNSAT,
    INCONCLUSIVE,
    SearchParams,
    avoidance_threshold,
    check_coverage,
    check_kpartite_coverage,
    construct_block_circulant,
    construct_kpartite_avoiding,
    construct_mod_m,
    construct_recursive_matrix,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    find_mono_kpartite,
    find_mono_kpartite_brute,
    guaranteed_p,
    local_profile,
    matrix_local_profile,
    matrix_to_rectangles,
    max_superimposed,
    random_cover,
    superimposed_bound,
    search_avoiding,
    threshold_table,
    triple_count,
    validate_kpartite,
    validate_shuffle_preserved,
    verify_biclique_witness,
    verify_kpartite_witness,
)
from shufflecover.cli import run
from shufflecover.search import _Searcher
from test_search import assert_certificate, run_dfs


def criterion(num, name, budget_s):
    """Print one ACCEPTANCE line per criterion and enforce its budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
                elapsed = time.monotonic() - start
                assert elapsed < budget_s, (
                    f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
                )
            except BaseException:
                print(f"ACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")

        return wrapper

    return deco


GOLDEN_ROWS = (
    (1, 5, 2, 2),
    (1, 4, 3, 4),
    (8, 5, 8, 7),
    (6, 6, 3, 7),
)


# ---------------------------------------------------------------------------
# shared corpora (built once, reused by criteria 4, 5 and 9)


@functools.cache
def bipartite_corpus():
    """>= 1000 seeded random coverage-complete covers plus all constructions."""
    covers = []
    params = [
        (n, m, mms)
        for n in range(2, 9)
        for m in range(2, n + 1)
        for mms in range(1, 4)
        if mms >= -(-n // m)
    ]
    # tight cells the random generator is known to reach
    params += [(8, 6, 1), (6, 4, 1), (4, 3, 1)]
    seed = 0
    while len(covers) < 1000:
        for n, m, mms in params:
            try:
                covers.append(random_cover(n, m, mms, seed=seed))
            except GenerationFailed:
                pass
        seed += 1
    for n in range(1, 11):
        for m in range(1, n + 1):
            covers.append(matrix_to_rectangles(construct_mod_m(n, m)))
    for k in (2, 3, 4):
        covers.append(matrix_to_rectangles(construct_recursive_matrix(k)))
    return covers


def random_two_coloring(k: int, n: int, rng: random.Random) -> KPartiteCover:
    """Random complete shuffle-preserved 2-coloring, one of the two shapes
    such colorings can take: one color global, or one part split between
    the colors with every other part fully in both."""
    full = frozenset(range(n))
    pairs = []
    if rng.random() < 0.5:
        subs = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(k)]
        if sum(1 for s in subs if s) < 2:
            subs[0] = full
            subs[1] = frozenset([rng.randrange(n)])
        for a in range(k):
            for b in range(a + 1, k):
                rects = [Rectangle(color=0, rows=full, cols=full)]
                if subs[a] and subs[b]:
                    rects.append(Rectangle(color=1, rows=subs[a], cols=subs[b]))
                pairs.append((a, b, tuple(rects)))
    else:
        special = rng.randrange(k)
        side_a = frozenset(rng.sample(range(n), rng.randint(1, n)))
        side_b = frozenset(full - side_a) | frozenset(
            rng.sample(sorted(side_a), rng.randint(0, len(side_a)))
        )
        if not side_b:
            side_b = frozenset([rng.randrange(n)])
        for a in range(k):
            for b in range(a + 1, k):
                if special not in (a, b):
                    rects = (
                        Rectangle(color=0, rows=full, cols=full),
                        Rectangle(color=1, rows=full, cols=full),
                    )
                elif a == special:
                    rects = (
                        Rectangle(color=0, rows=side_a, cols=full),
                        Rectangle(color=1, rows=side_b, cols=full),
                    )
                else:
                    rects = (
                        Rectangle(color=0, rows=full, cols=side_a),
                        Rectangle(color=1, rows=full, cols=side_b),
                    )
                pairs.append((a, b, rects))
    return KPartiteCover(k=k, n=n, pairs=tuple(pairs))


@functools.cache
def kpartite_corpus():
    """>= 200 seeded random 2-colorings for k in {3, 4}, n <= 6."""
    rng = random.Random(424242)
    covers = []
    for k in (3, 4):
        for n in range(2, 7):
            for _ in range(25):
                cover = random_two_coloring(k, n, rng)
                assert validate_kpartite(cover) is None
                assert check_kpartite_coverage(cover) is None
                covers.append(cover)
    return covers


# ---------------------------------------------------------------------------
# criteria


@criterion(1, "golden 4x4 matrix", 1.0)
def test_criterion_1_golden_matrix():
    import io
    import sys

    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = run(["generate", "--kind", "recursive", "--k", "2"])
    finally:
        sys.stdout = old
    assert code == 0
    expected = "4 4\n" + "\n".join(" ".join(map(str, r)) for r in GOLDEN_ROWS) + "\n"
    assert buf.getvalue() == expected
    matrix = construct_recursive_matrix(2)
    assert matrix.cells == GOLDEN_ROWS
    assert validate_shuffle_preserved(matrix) is None
    assert matrix_local_profile(matrix).local_width == 3
    assert find_mono_biclique_brute(matrix, 2) is None


@criterion(2, "recursive family k=3,4", 10.0)
def test_criterion_2_recursive_family():
    for k, width in ((3, 6), (4, 12)):
        matrix = construct_recursive_matrix(k)
        assert matrix.n_rows == 1 << k
        assert validate_shuffle_preserved(matrix) is None
        prof = matrix_local_profile(matrix)
        assert prof.local_width == width
        assert set(prof.row_counts) == {width} and set(prof.col_counts) == {width}
        assert find_mono_biclique_brute(matrix, 2) is None


@criterion(3, "mod-m family n<=10", 30.0)
def test_criterion_3_mod_m_family():
    for n in range(1, 11):
        for m in range(1, n + 1):
            matrix = construct_mod_m(n, m)
            assert validate_shuffle_preserved(matrix) is None
            p = -(-n // m) + 1
            assert find_mono_biclique_brute(matrix, p, max_p=max(6, p)) is None


@criterion(4, "guarantee property on random corpus", 60.0)
def test_criterion_4_guarantee_property():
    corpus = bipartite_corpus()
    assert len(corpus) >= 1000 + 55 + 3
    for cover in corpus:
        assert check_coverage(cover) is None
        n = min(cover.n_rows, cover.n_cols)
        m = local_profile(cover).local_width
        for p in range(1, guaranteed_p(n, m) + 1):
            witness = find_mono_biclique_fast(cover, p)
            assert witness is not None, (cover.n_rows, m, p)
            assert verify_biclique_witness(cover, witness, p)


@criterion(5, "counting identities on the same corpus", 60.0)
def test_criterion_5_counting_identities():
    for cover in bipartite_corpus():
        prof = local_profile(cover)
        assert triple_count(cover) >= cover.n_rows * cover.n_cols
        row_sum = sum(len(r.rows) for r in cover.rectangles)
        col_sum = sum(len(r.cols) for r in cover.rectangles)
        assert row_sum == sum(prof.row_counts)
        assert col_sum == sum(prof.col_counts)
        assert row_sum <= prof.local_width * cover.n_rows
        assert col_sum <= prof.local_width * cover.n_cols


@criterion(6, "threshold table", 720.0)
def test_criterion_6_threshold_table():
    start = time.monotonic()
    rows4 = list(threshold_table(4))
    elapsed4 = time.monotonic() - start
    assert elapsed4 < 120, f"n<=4 table took {elapsed4:.1f}s"
    assert len(rows4) == 4 * 4 * 5
    for row in rows4:
        assert row.verdict in (SAT, UNSAT)
        if row.p <= guaranteed_p(row.n, row.m):
            assert row.verdict == UNSAT, row
        if row.p > avoidance_threshold(row.n, row.m):
            assert row.verdict == SAT, row
        if (row.n, row.m, row.p) == (4, 3, 2):
            assert row.verdict == SAT, row
    # n = 5 best-effort: decided cells must still match the regimes
    start = time.monotonic()
    for row in threshold_table(5, timeout_per_cell=15.0):
        if row.n != 5 or row.verdict == INCONCLUSIVE:
            continue
        if row.p <= guaranteed_p(row.n, row.m):
            assert row.verdict == UNSAT, row
        if row.p > avoidance_threshold(row.n, row.m):
            assert row.verdict == SAT, row
    assert time.monotonic() - start < 600


@criterion(7, "superimposed clique bounds", 60.0)
def test_criterion_7_superimposed():
    rng = random.Random(31337)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 14)
        m = rng.randint(1, 6)
        cliques = tuple(
            (color, frozenset(rng.sample(range(n), rng.randint(1, n))))
            for color in range(m)
        )
        family = CliqueFamily(n_vertices=n, cliques=cliques)
        by_color = dict(family.cliques)
        hist = family.membership_histogram()
        for t in range(1, m + 1):
            bound = superimposed_bound(family, t)
            witness = max_superimposed(family, t)
            assert bound <= len(witness.vertices)
            assert witness.vertices == frozenset.intersection(
                *(by_color[c] for c in witness.colors)
            )
            lhs = sum(
                len(frozenset.intersection(*(by_color[c] for c in subset)))
                for subset in combinations(sorted(by_color), t)
            )
            rhs = sum(d * math.comb(i, t) for i, d in hist.items() if i >= t)
            assert lhs == rhs
        checked += 1


@criterion(8, "k-partite guarantee and avoidance", 120.0)
def test_criterion_8_kpartite():
    corpus = kpartite_corpus()
    assert len(corpus) >= 200
    for cover in corpus:
        for p in range(1, cover.n + 1):
            witness = find_mono_kpartite(cover, p)
            if 2 * (p - 1) < cover.n:
                assert witness is not None, (cover.k, cover.n, p)
            if witness is not None:
                assert verify_kpartite_witness(cover, witness, p)
    for k in (3, 4):
        for n in range(1, 5):
            for m in range(1, n + 1):
                cover = construct_kpartite_avoiding(n, m, k)
                assert validate_kpartite(cover) is None
                assert check_kpartite_coverage(cover) is None
                p = -(-n // m) + 1
                assert find_mono_kpartite_brute(cover, p) is None, (k, n, m)


@criterion(9, "fast vs brute oracle equivalence", 300.0)
def test_criterion_9_oracle_equivalence():
    for cover in bipartite_corpus():
        n = max(cover.n_rows, cover.n_cols)
        for p in range(1, n + 1):
            fast = find_mono_biclique_fast(cover, p)
            brute = find_mono_biclique_brute(cover, p, max_p=max(6, n))
            assert (fast is None) == (brute is None), (cover.n_rows, p)
            if fast is not None:
                assert verify_biclique_witness(cover, fast, p)
                assert verify_biclique_witness(cover, brute, p)
    for cover in kpartite_corpus():
        for p in range(1, cover.n + 1):
            fast = find_mono_kpartite(cover, p)
            brute = find_mono_kpartite_brute(cover, p)
            assert fast == brute, (cover.k, cover.n, p)
            if fast is not None:
                assert verify_kpartite_witness(cover, fast, p)
                assert verify_kpartite_witness(cover, brute, p)
    # the m-coloring constructions feed the k-partite comparison too, with
    # any color count
    for k in (3, 4):
        for n in range(2, 5):
            for m in range(1, 5):
                cover = construct_kpartite_avoiding(n, m, k)
                for p in range(1, n + 1):
                    fast = find_mono_kpartite(cover, p)
                    brute = find_mono_kpartite_brute(cover, p)
                    assert fast == brute, (k, n, m, p)


@criterion(10, "every n <= 7 cell decided, SAT iff p > guaranteed_p", 120.0)
def test_criterion_10_n7_table_decided():
    rows = list(threshold_table(7, timeout_per_cell=20))
    assert len(rows) == 7 * 7 * 8 == 392
    # the DFS's node total locks its order on every cell, the p = 2 row
    # included, which search_avoiding answers at the root
    assert sum(run_dfs(row.n, row.m, row.p).stats.nodes for row in rows) == 1611
    for row in rows:
        assert row.verdict == (SAT if row.p > guaranteed_p(row.n, row.m) else UNSAT), row
        if row.verdict == SAT:
            out = search_avoiding(SearchParams(row.n, row.m, row.p, timeout=20))
            assert_certificate(out, row.n, row.m, row.p)


@criterion(
    11, "every cell to n = 40: the root counting bound or a block-circulant certificate", 120.0
)
def test_criterion_11_square_table_in_closed_form():
    certified = 0
    for n in range(2, 41):
        for m in range(2, n + 1):
            for p in range(1, n + 1):
                searcher = _Searcher(n, m, p, None, None)
                fires = not searcher.within_bound(n * n, searcher.load(0, [0] * (2 * n)))
                try:
                    cover = construct_block_circulant(n, m, p)
                except ValueError:
                    assert fires, (n, m, p)
                    continue
                assert not fires, (n, m, p)
                assert check_coverage(cover) is None
                assert local_profile(cover).local_width <= m
                assert all(rect.min_side <= p - 1 for rect in cover.rectangles)
                assert find_mono_biclique_fast(cover, p) is None
                certified += 1
    # every cell above guaranteed_p, and no other
    assert certified == 19472
