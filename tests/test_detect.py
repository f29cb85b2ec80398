"""Detector tests: bipartite fast/brute, k-partite, superimposed cliques.

Brute-force results double as the oracle for the fast paths, so the frozen
witnesses here were computed by hand before either detector existed.
"""

import math
import random
from itertools import combinations

import pytest

from shufflecover import detect
from shufflecover import (
    CliqueFamily,
    InstanceTooLarge,
    KPartiteCover,
    KPartiteCoverageViolation,
    KPartiteWitness,
    NotShufflePreserved,
    Rectangle,
    RectangleCover,
    SuperimposedWitness,
    TooManySubsets,
    Witness,
    construct_kpartite_avoiding,
    construct_mod_m,
    construct_recursive_matrix,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    find_mono_kpartite,
    find_mono_kpartite_brute,
    matrix_to_rectangles,
    max_superimposed,
    superimposed_bound,
    verify_biclique_witness,
    verify_kpartite_witness,
)

GOLDEN = construct_recursive_matrix(2)
GOLDEN_COVER = matrix_to_rectangles(GOLDEN)


def test_fast_finds_nothing_in_golden_at_two():
    # every color class of the golden matrix is 1x2 or 2x1
    assert find_mono_biclique_fast(GOLDEN_COVER, 2) is None


def test_brute_agrees_on_golden_at_two():
    assert find_mono_biclique_brute(GOLDEN, 2) is None


def test_both_find_the_first_color_at_one():
    expected = Witness(color=1, rows={0}, cols={0})
    assert find_mono_biclique_fast(GOLDEN_COVER, 1) == expected
    assert find_mono_biclique_brute(GOLDEN, 1) == expected


def test_fast_witness_truncates_to_lowest_indices():
    cover = RectangleCover(
        n_rows=4,
        n_cols=4,
        rectangles=(Rectangle(color=5, rows=[3, 1, 2], cols=[0, 2, 3]),),
    )
    w = find_mono_biclique_fast(cover, 2)
    assert w == Witness(color=5, rows={1, 2}, cols={0, 2})


def test_brute_accepts_raw_triples():
    edges = [(0, 0, 9), (0, 1, 9), (1, 0, 9), (1, 1, 9), (2, 2, 4)]
    w = find_mono_biclique_brute(edges, 2)
    assert w == Witness(color=9, rows={0, 1}, cols={0, 1})
    assert verify_biclique_witness(edges, w, 2)


def test_brute_skips_a_subset_once_its_columns_fall_below_p():
    # rows 0 and 1 share no column, so the pair (0, 1) is dropped early
    edges = [(0, 0, 0), (0, 1, 0), (1, 2, 0), (1, 3, 0), (2, 0, 0), (2, 1, 0)]
    assert find_mono_biclique_brute(edges, 2) == Witness(color=0, rows={0, 2}, cols={0, 1})
    assert find_mono_biclique_brute(edges[:4], 2) is None


def test_brute_needs_no_shuffle_structure():
    # diagonal-ish color 0 with no 2x2: matrix is not shuffle-preserved
    edges = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert find_mono_biclique_brute(edges, 2) is None


def test_mod_m_avoids_thin_plus_one():
    for n in range(1, 9):
        for m in range(1, n + 1):
            cover = matrix_to_rectangles(construct_mod_m(n, m))
            p = -(-n // m) + 1
            assert find_mono_biclique_fast(cover, p) is None
            if p <= 6:
                assert find_mono_biclique_brute(cover, p) is None


def test_p_beyond_dimensions_is_none_not_an_error():
    assert find_mono_biclique_brute(GOLDEN, 5) is None
    assert find_mono_biclique_brute(GOLDEN, 400) is None


def test_brute_guards_large_instances():
    wide = [(0, c, 0) for c in range(25)]
    with pytest.raises(InstanceTooLarge):
        find_mono_biclique_brute(wide, 1)
    assert find_mono_biclique_brute(wide, 1, max_n=25) is not None
    deep = construct_mod_m(8, 1)
    with pytest.raises(InstanceTooLarge):
        find_mono_biclique_brute(deep, 7)
    assert find_mono_biclique_brute(deep, 7, max_p=8) is not None


def test_brute_refuses_matrix_and_cover_before_listing_edges(monkeypatch):
    matrix = construct_mod_m(256, 5)
    cover = matrix_to_rectangles(matrix)

    edge_triples = detect._edge_triples

    def unlisted(graph):
        # the real sides, with edges that fail the test once iterated
        n_rows, n_cols, _ = edge_triples(graph)

        def edges():
            raise AssertionError("edges were listed before the guard refused")
            yield

        return n_rows, n_cols, edges()

    monkeypatch.setattr(detect, "_edge_triples", unlisted)
    for graph in (matrix, cover):
        with pytest.raises(InstanceTooLarge) as exc:
            find_mono_biclique_brute(graph, 2)
        assert str(exc.value) == "sides up to 256 exceed the guard (24)"
        with pytest.raises(InstanceTooLarge) as exc:
            find_mono_biclique_brute(graph, 7, max_n=256)
        assert str(exc.value) == "p=7 exceeds the guard (6)"
        assert find_mono_biclique_brute(graph, 257) is None


def test_verify_rejects_corrupted_witness():
    w = find_mono_biclique_fast(GOLDEN_COVER, 1)
    assert verify_biclique_witness(GOLDEN, w, 1)
    wrong_color = Witness(color=2, rows=w.rows, cols=w.cols)
    assert not verify_biclique_witness(GOLDEN, wrong_color, 1)
    too_small = Witness(color=w.color, rows=w.rows, cols=w.cols)
    assert not verify_biclique_witness(GOLDEN, too_small, 2)


def test_fast_and_brute_agree_on_random_grid_partitions():
    # random shuffle-preserved matrices: grid partitions into blocks
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(2, 8)
        row_cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        col_cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        row_groups = [range(a, b) for a, b in zip([0, *row_cuts], [*row_cuts, n])]
        col_groups = [range(a, b) for a, b in zip([0, *col_cuts], [*col_cuts, n])]
        rects = tuple(
            Rectangle(color=i, rows=rg, cols=cg)
            for i, (rg, cg) in enumerate(
                (rg, cg) for rg in row_groups for cg in col_groups
            )
        )
        cover = RectangleCover(n_rows=n, n_cols=n, rectangles=rects)
        for p in range(1, min(n, 6) + 1):
            fast = find_mono_biclique_fast(cover, p)
            brute = find_mono_biclique_brute(cover, p)
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert fast.color == brute.color
                assert verify_biclique_witness(cover, fast, p)
                assert verify_biclique_witness(cover, brute, p)


def split_part_two_coloring() -> KPartiteCover:
    # color 0 owns part-0 rows {0,1}, color 1 rows {1,2}; other pairs full
    all3 = frozenset(range(3))
    mod = (
        Rectangle(color=0, rows=[0, 1], cols=all3),
        Rectangle(color=1, rows=[1, 2], cols=all3),
    )
    full = (
        Rectangle(color=0, rows=all3, cols=all3),
        Rectangle(color=1, rows=all3, cols=all3),
    )
    return KPartiteCover(k=3, n=3, pairs=((0, 1, mod), (0, 2, mod), (1, 2, full)))


def test_kpartite_fast_frozen_witness():
    w = find_mono_kpartite(split_part_two_coloring(), 2)
    assert w == KPartiteWitness(color=0, parts=({0, 1}, {0, 1}, {0, 1}))


def test_kpartite_brute_agrees():
    cover = split_part_two_coloring()
    w = find_mono_kpartite_brute(cover, 2)
    assert w == KPartiteWitness(color=0, parts=({0, 1}, {0, 1}, {0, 1}))
    assert verify_kpartite_witness(cover, w, 2)


def test_kpartite_none_above_guarantee():
    # 2(p-1) = 4 >= n = 3: no color owns 3 part-0 vertices
    cover = split_part_two_coloring()
    assert find_mono_kpartite(cover, 3) is None
    assert find_mono_kpartite_brute(cover, 3) is None


def test_kpartite_p_beyond_part_size_is_none():
    cover = split_part_two_coloring()
    assert find_mono_kpartite(cover, 4) is None
    # no 4-subset of a part exists, so even the smallest guard lets it through
    assert find_mono_kpartite_brute(cover, 4) is None
    assert find_mono_kpartite_brute(cover, 4, max_combos=1) is None


def test_kpartite_scan_on_twelve_parts():
    # twelve parts: a part-dropping recursion would need about 8**3 times
    # its 3 s at k = 9
    cover = construct_kpartite_avoiding(4, 2, 12)
    for p in (1, 2):
        w = find_mono_kpartite(cover, p)
        assert w is not None and verify_kpartite_witness(cover, w, p)
    assert find_mono_kpartite(cover, 3) is None


def test_kpartite_one_color_matches_brute():
    # the scan is exact for any color count, not only for 2-colorings
    all2 = frozenset(range(2))
    one = (Rectangle(color=0, rows=all2, cols=all2),)
    cover = KPartiteCover(k=2, n=2, pairs=((0, 1, one),))
    w = find_mono_kpartite(cover, 1)
    assert w == find_mono_kpartite_brute(cover, 1)
    assert w == KPartiteWitness(color=0, parts=({0}, {0}))


def test_kpartite_rejects_invalid_coloring():
    # color 1 touches rows {0,1} and cols {0,1} but misses edge (0,0)
    rects = (
        Rectangle(color=0, rows=[0], cols=[0]),
        Rectangle(color=1, rows=[0], cols=[1]),
        Rectangle(color=1, rows=[1], cols=[0]),
    )
    cover = KPartiteCover(k=2, n=2, pairs=((0, 1, rects),))
    with pytest.raises(NotShufflePreserved):
        find_mono_kpartite(cover, 1)


def test_kpartite_rejects_coverage_gap():
    # every color is complete on what it touches, so the error carries the
    # uncovered pair, not a shuffle violation
    rects = (
        Rectangle(color=0, rows=[0], cols=[0, 1]),
        Rectangle(color=1, rows=[1], cols=[0]),
    )
    cover = KPartiteCover(k=2, n=2, pairs=((0, 1, rects),))
    with pytest.raises(NotShufflePreserved) as info:
        find_mono_kpartite(cover, 1)
    assert info.value.violation == KPartiteCoverageViolation(part_a=0, part_b=1, row=1, col=1)


def test_kpartite_brute_guard_overridable():
    cover = split_part_two_coloring()
    with pytest.raises(InstanceTooLarge):
        find_mono_kpartite_brute(cover, 2, max_combos=3)


def test_verify_kpartite_rejects_corruption():
    cover = split_part_two_coloring()
    w = find_mono_kpartite(cover, 2)
    bad = KPartiteWitness(color=1, parts=w.parts)
    assert not verify_kpartite_witness(cover, bad, 2)
    short = KPartiteWitness(color=0, parts=w.parts[:2])
    assert not verify_kpartite_witness(cover, short, 2)


def family(n: int, cliques: dict[int, set[int]]) -> CliqueFamily:
    return CliqueFamily(
        n_vertices=n,
        cliques=tuple((c, frozenset(v)) for c, v in cliques.items()),
    )


def test_clique_family_validation():
    with pytest.raises(ValueError):
        family(3, {0: set()})
    with pytest.raises(ValueError):
        family(3, {0: {5}})
    with pytest.raises(ValueError):
        CliqueFamily(n_vertices=3, cliques=((0, frozenset({0})), (0, frozenset({1}))))


def test_membership_histogram_frozen():
    f = family(4, {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
    assert f.membership_histogram() == {1: 1, 2: 1, 3: 1}
    assert f.m == 3


def test_single_clique_bound_is_its_size():
    f = family(5, {0: {0, 1, 2, 3, 4}})
    assert superimposed_bound(f, 1) == 5
    w = max_superimposed(f, 1)
    assert w == SuperimposedWitness(colors={0}, vertices={0, 1, 2, 3, 4})


def test_two_disjoint_cliques_average_down():
    f = family(6, {0: {0, 1, 2}, 1: {3, 4, 5}})
    # 6 memberships over C(2,1) = 2 subsets: bound 3, achieved by either
    assert superimposed_bound(f, 1) == 3
    assert max_superimposed(f, 1) == SuperimposedWitness(colors={0}, vertices={0, 1, 2})


def test_triple_overlap_bound_exact():
    # 4 vertices in all three cliques: d_3 = 4
    core = {0, 1, 2, 3}
    f = family(4, {0: core, 1: core, 2: core})
    # t=2: 4 * C(3,2) = 12 pairs over C(3,2) = 3 subsets: bound 4
    assert superimposed_bound(f, 2) == 4
    w = max_superimposed(f, 2)
    assert w.colors == frozenset({0, 1}) and w.vertices == frozenset(core)


def test_ceiling_rounds_up():
    f = family(5, {0: {0, 1, 2}, 1: {2, 3, 4}})
    # 5 vertices, 6 memberships over 2 singletons: ceil(3) = 3; t=2 exact
    assert superimposed_bound(f, 1) == 3
    assert superimposed_bound(f, 2) == 1
    assert max_superimposed(f, 2).vertices == frozenset({2})


def test_tie_break_smallest_color_subset():
    f = family(6, {2: {0, 1, 2}, 5: {3, 4, 5}})
    assert max_superimposed(f, 1).colors == frozenset({2})


def test_t_out_of_range():
    f = family(3, {0: {0}, 1: {1}})
    with pytest.raises(ValueError):
        superimposed_bound(f, 0)
    with pytest.raises(ValueError):
        superimposed_bound(f, 3)
    with pytest.raises(ValueError):
        max_superimposed(f, 3)


def test_subset_guard():
    f = family(3, {0: {0}, 1: {1}, 2: {2}})
    with pytest.raises(TooManySubsets):
        max_superimposed(f, 1, max_subsets=2)


def random_family(rng: random.Random) -> CliqueFamily:
    n = rng.randint(2, 12)
    m = rng.randint(1, 5)
    cliques = {}
    for color in range(m):
        size = rng.randint(1, n)
        cliques[color] = set(rng.sample(range(n), size))
    return family(n, cliques)


def test_bound_never_exceeds_exact_maximum():
    rng = random.Random(77)
    for _ in range(150):
        f = random_family(rng)
        for t in range(1, f.m + 1):
            assert superimposed_bound(f, t) <= len(max_superimposed(f, t).vertices)


def test_two_way_counting_identity():
    rng = random.Random(78)
    for _ in range(150):
        f = random_family(rng)
        by_color = dict(f.cliques)
        hist = f.membership_histogram()
        for t in range(1, f.m + 1):
            lhs = sum(
                len(frozenset.intersection(*(by_color[c] for c in subset)))
                for subset in combinations(sorted(by_color), t)
            )
            rhs = sum(
                count * math.comb(i, t) for i, count in hist.items() if i >= t
            )
            assert lhs == rhs
