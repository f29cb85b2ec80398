"""Core model tests: matrices, rectangles, validators, profiles, counting.

Expected values for the 4x4 golden matrix were worked out by hand from its
color spans before the conversion code existed.
"""

import copy
import dataclasses
import functools
import pickle
import time
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecover import (
    CliqueFamily,
    ColorMatrix,
    CoverageViolation,
    KPartiteCover,
    KPartiteCoverageViolation,
    KPartiteShuffleViolation,
    KPartiteWitness,
    LocalityViolation,
    NotShufflePreserved,
    OverlapError,
    Rectangle,
    RectangleCover,
    ShuffleViolation,
    avoidance_threshold,
    check_coverage,
    check_kpartite_coverage,
    color_classes,
    construct_kpartite_avoiding,
    construct_mod_m,
    cover_to_obj,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    find_mono_kpartite,
    find_mono_kpartite_brute,
    guaranteed_p,
    kpartite_violation,
    local_profile,
    locality_violation,
    matrix_local_profile,
    matrix_to_rectangles,
    parse_matrix,
    rectangles_to_matrix,
    triple_count,
    validate_kpartite,
    validate_shuffle_preserved,
    write_matrix,
)
from shufflecover.core import _bitmask, _color_spans, _first_gap

M2_ROWS = (
    (1, 5, 2, 2),
    (1, 4, 3, 4),
    (8, 5, 8, 7),
    (6, 6, 3, 7),
)

# hand-derived spans of the golden matrix, one rectangle per color
M2_RECTANGLES = {
    1: ({0, 1}, {0}),
    2: ({0}, {2, 3}),
    3: ({1, 3}, {2}),
    4: ({1}, {1, 3}),
    5: ({0, 2}, {1}),
    6: ({3}, {0, 1}),
    7: ({2, 3}, {3}),
    8: ({2}, {0, 2}),
}


def m2() -> ColorMatrix:
    return ColorMatrix(M2_ROWS)


def test_matrix_shape_and_colors():
    m = m2()
    assert m.n_rows == 4
    assert m.n_cols == 4
    assert m.colors() == {1, 2, 3, 4, 5, 6, 7, 8}


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ColorMatrix(((1, 2), (3,)))


def test_matrix_rejects_empty():
    with pytest.raises(ValueError):
        ColorMatrix(())
    with pytest.raises(ValueError):
        ColorMatrix(((),))


def test_matrix_rejects_bad_colors():
    with pytest.raises(ValueError):
        ColorMatrix(((1, -2),))
    with pytest.raises(ValueError):
        ColorMatrix(((1, True),))


@pytest.mark.parametrize("bad", [True, -1, 2.5])
@pytest.mark.parametrize("pos", [0, 1, 150, 299])
def test_long_rows_and_sides_refuse_bad_values(bad, pos):
    # a second bad value after the first: the message names the first
    row = list(range(1000, 1300))
    row[-1] = -7
    row[pos] = bad
    with pytest.raises(ValueError) as exc:
        ColorMatrix((tuple(range(300)), tuple(row)))
    assert str(exc.value) == f"color ids must be non-negative integers, got {bad!r}"
    side = list(range(1000, 1300))
    side[pos] = bad
    for rows, cols in ((side, [0]), ([0], side)):
        with pytest.raises(ValueError) as exc:
            Rectangle(color=0, rows=rows, cols=cols)
        assert str(exc.value) == f"indices must be non-negative integers, got {bad!r}"


def test_rectangle_normalizes_and_measures():
    r = Rectangle(color=3, rows=[2, 0], cols=(1,))
    assert r.rows == frozenset({0, 2})
    assert r.cols == frozenset({1})
    assert r.min_side == 1
    assert r.area() == 2


def test_rectangle_rejects_empty_side():
    with pytest.raises(ValueError):
        Rectangle(color=0, rows=[], cols=[1])


@pytest.mark.parametrize("side, bad", [
    ([1, True], True), ([0, 2, False], False), ([3, 1, 1.0], 1.0), ([4, 1, 0, True], True),
])
@pytest.mark.parametrize("given_as", [list, iter])
def test_a_value_a_set_merges_away_is_still_refused(side, bad, given_as):
    # True == 1.0 == 1, so the set of [1, True] keeps the 1 alone and a
    # check of the set would pass; the first bad value as given is named
    message = f"indices must be non-negative integers, got {bad!r}"
    for rows, cols in ((given_as(side), [0]), ([0], given_as(side))):
        with pytest.raises(ValueError) as exc:
            Rectangle(color=0, rows=rows, cols=cols)
        assert str(exc.value) == message
    # a clique vertex is named the same way, whether a set would merge it
    # away or keep it
    for vertices in (side, [bad]):
        with pytest.raises(ValueError) as exc:
            CliqueFamily(4, ((0, given_as(vertices)),))
        assert str(exc.value) == message


def test_repeated_indices_merge_without_complaint():
    assert Rectangle(color=0, rows=[1, 1, 0], cols=iter([2, 2])).rows == {0, 1}
    assert CliqueFamily(3, ((0, iter([2, 2])),)).cliques == ((0, frozenset({2})),)


def test_cover_rejects_duplicate_colors():
    r = Rectangle(color=0, rows=[0], cols=[0])
    with pytest.raises(ValueError):
        RectangleCover(n_rows=2, n_cols=2, rectangles=(r, r))


def test_cover_rejects_out_of_grid():
    r = Rectangle(color=0, rows=[5], cols=[0])
    with pytest.raises(ValueError):
        RectangleCover(n_rows=2, n_cols=2, rectangles=(r,))


def test_golden_matrix_is_shuffle_preserved():
    assert validate_shuffle_preserved(m2()) is None


def test_golden_matrix_rectangles_match_hand_derivation():
    cover = matrix_to_rectangles(m2())
    assert cover.n_rows == 4 and cover.n_cols == 4
    got = {r.color: (set(r.rows), set(r.cols)) for r in cover.rectangles}
    assert got == M2_RECTANGLES


def test_matrix_round_trip_is_identity():
    assert rectangles_to_matrix(matrix_to_rectangles(m2())) == m2()


def test_color_classes_of_golden_matrix_and_its_cover():
    classes = [(c, set(rows), set(cols)) for c, rows, cols in color_classes(m2())]
    assert classes == [(c, *M2_RECTANGLES[c]) for c in sorted(M2_RECTANGLES)]
    rects = [Rectangle(color=c, rows=r, cols=k) for c, (r, k) in M2_RECTANGLES.items()]
    cover = RectangleCover(n_rows=4, n_cols=4, rectangles=rects[::-1])
    assert color_classes(cover) == [(r.color, r.rows, r.cols) for r in cover.rectangles]


def test_shuffle_violation_is_concrete():
    # color 1 spans both rows and both cols but (0, 1) is color 2
    bad = ColorMatrix(((1, 2), (2, 1)))
    v = validate_shuffle_preserved(bad)
    assert v == ShuffleViolation(u=0, u_prime=1, v=0, v_prime=1, color=1)
    # the quadruple re-checks against the matrix
    assert bad.cells[v.u][v.v] == v.color
    assert bad.cells[v.u_prime][v.v_prime] == v.color
    assert bad.cells[v.u][v.v_prime] != v.color


def test_matrix_to_rectangles_raises_with_violation():
    bad = ColorMatrix(((1, 2), (2, 1)))
    with pytest.raises(NotShufflePreserved) as exc:
        matrix_to_rectangles(bad)
    assert exc.value.violation.color == 1


def test_rectangles_to_matrix_rejects_overlap():
    rects = (
        Rectangle(color=0, rows=[0, 1], cols=[0, 1]),
        Rectangle(color=1, rows=[1], cols=[1]),
    )
    with pytest.raises(OverlapError):
        rectangles_to_matrix(RectangleCover(n_rows=2, n_cols=2, rectangles=rects))


def test_rectangles_to_matrix_rejects_gap():
    # the first uncovered cell, row-major: the one check_coverage reports
    rects = (Rectangle(color=0, rows=[0], cols=[0, 1]),)
    cover = RectangleCover(n_rows=2, n_cols=2, rectangles=rects)
    with pytest.raises(ValueError, match=r"^cell \(1, 0\) is uncovered; no matrix form exists$"):
        rectangles_to_matrix(cover)
    assert check_coverage(cover) == CoverageViolation(row=1, col=0)


def test_check_coverage_reports_first_gap_row_major():
    rects = (
        Rectangle(color=0, rows=[0], cols=[0, 1]),
        Rectangle(color=1, rows=[1], cols=[1]),
    )
    cover = RectangleCover(n_rows=2, n_cols=2, rectangles=rects)
    assert check_coverage(cover) == CoverageViolation(row=1, col=0)
    # a row that no rectangle touches: its first cell is the gap
    rects = (
        Rectangle(color=0, rows=[0, 1], cols=[0]),
        Rectangle(color=1, rows=[0, 1], cols=[1]),
    )
    cover = RectangleCover(n_rows=3, n_cols=2, rectangles=rects)
    assert check_coverage(cover) == CoverageViolation(row=2, col=0)


@pytest.mark.parametrize(
    "check, cover, gap",
    [
        (check_coverage, RectangleCover(n_rows=1, n_cols=10**7, rectangles=()),
         CoverageViolation(row=0, col=0)),
        (check_kpartite_coverage, KPartiteCover(k=2, n=10**7, pairs=()),
         KPartiteCoverageViolation(0, 1, 0, 0)),
    ],
    ids=["bipartite", "kpartite"],
)
def test_coverage_scan_is_linear_in_declared_width(check, cover, gap):
    # a 50-byte input may declare 10^7 columns; a scan quadratic in the
    # width took 4.3 s at 400,000 of them
    start = time.perf_counter()
    assert check(cover) == gap
    assert time.perf_counter() - start < 2


def test_coverage_scan_is_linear_in_a_rectangles_width():
    # one rectangle over columns 0..w-2 of a one-row cover: summing 1 << c
    # over its columns, quadratic in w, took about 4 s at this width
    width = 400_000
    cover = RectangleCover(
        n_rows=1, n_cols=width, rectangles=(Rectangle(color=0, rows=[0], cols=range(width - 1)),)
    )
    start = time.perf_counter()
    assert check_coverage(cover) == CoverageViolation(row=0, col=width - 1)
    assert time.perf_counter() - start < 2


def test_check_coverage_ok_on_partition():
    cover = matrix_to_rectangles(m2())
    assert check_coverage(cover) is None


def test_local_profile_of_golden_matrix():
    prof = local_profile(matrix_to_rectangles(m2()))
    # every line of the golden matrix meets exactly 3 colors
    assert prof.row_counts == (3, 3, 3, 3)
    assert prof.col_counts == (3, 3, 3, 3)
    assert prof.local_width == 3
    assert prof.global_colors == 8


def test_matrix_local_profile_no_shuffle_needed():
    prof = matrix_local_profile(ColorMatrix(((1, 2), (2, 1))))
    assert prof.row_counts == (2, 2)
    assert prof.col_counts == (2, 2)
    assert prof.local_width == 2
    assert prof.global_colors == 2


def test_profiles_agree_on_shuffle_preserved_input():
    assert matrix_local_profile(m2()) == local_profile(matrix_to_rectangles(m2()))


def test_locality_violation_rows_first():
    prof = local_profile(matrix_to_rectangles(m2()))
    assert locality_violation(prof, 3) is None
    v = locality_violation(prof, 2)
    assert v == LocalityViolation(side="row", index=0, count=3, limit=2)


def test_locality_violation_on_a_column():
    # row stripes: every row sees one color, every column all three
    prof = local_profile(matrix_to_rectangles(construct_mod_m(6, 3)))
    assert locality_violation(prof, 3) is None
    v = locality_violation(prof, 2)
    assert v == LocalityViolation(side="col", index=0, count=3, limit=2)


def test_triple_count_golden_equals_grid_size():
    # all 8 rectangles are 1x2 or 2x1: total area 16 = 4*4, the equality case
    assert triple_count(matrix_to_rectangles(m2())) == 16


def test_triple_count_single_full_rectangle():
    full = RectangleCover(
        n_rows=3,
        n_cols=3,
        rectangles=(Rectangle(color=0, rows=range(3), cols=range(3)),),
    )
    assert triple_count(full) == 9


def test_triple_count_counts_overlaps_once_per_color():
    rects = (
        Rectangle(color=0, rows=[0, 1], cols=[0, 1]),
        Rectangle(color=1, rows=[0], cols=[0]),
    )
    cover = RectangleCover(n_rows=2, n_cols=2, rectangles=rects)
    assert triple_count(cover) == 5


def test_guaranteed_p_frozen_values():
    # n=9, m=3: largest p with 2(p-1)(m-1) < 9 is p=3
    assert guaranteed_p(9, 3) == 3
    assert guaranteed_p(8, 2) == 4
    assert guaranteed_p(4, 3) == 1
    # m=1 forces everything: the single color is the whole grid
    assert guaranteed_p(5, 1) == 5
    # cap at n: tiny m cannot promise more rows than exist
    assert guaranteed_p(3, 1) == 3


def test_guaranteed_p_inequality_characterization():
    for n in range(1, 12):
        for m in range(2, 8):
            g = guaranteed_p(n, m)
            assert 2 * (g - 1) * (m - 1) < n
            if g < n:
                assert 2 * g * (m - 1) >= n


def test_avoidance_threshold_frozen_values():
    assert avoidance_threshold(9, 3) == 3
    assert avoidance_threshold(10, 3) == 4
    assert avoidance_threshold(5, 5) == 1
    assert avoidance_threshold(7, 2) == 4


def test_regimes_do_not_cross():
    # the guaranteed regime ends at or below the avoidable threshold
    for n in range(1, 16):
        for m in range(2, 8):
            assert guaranteed_p(n, m) <= avoidance_threshold(n, m)


def mk_kpartite(k: int, n: int, pairs):
    return KPartiteCover(k=k, n=n, pairs=tuple(pairs))


def full_rect(color: int, n: int) -> Rectangle:
    return Rectangle(color=color, rows=range(n), cols=range(n))


def test_kpartite_valid_single_color():
    cover = mk_kpartite(
        3, 2, [(a, b, (full_rect(0, 2),)) for a, b in ((0, 1), (0, 2), (1, 2))]
    )
    assert validate_kpartite(cover) is None
    assert check_kpartite_coverage(cover) is None
    assert cover.colors() == {0}
    assert cover.touched_sets(0) == [{0, 1}, {0, 1}, {0, 1}]
    # a color the cover does not hold touches nothing in any part
    assert cover.touched_sets(5) == [set(), set(), set()]


def test_kpartite_shuffle_violation():
    # color 0 touches parts 0 and 1 at vertices 0 and 1 but omits the edge
    rects01 = (
        Rectangle(color=0, rows=[0], cols=[0]),
        Rectangle(color=1, rows=[0], cols=[1]),
        Rectangle(color=1, rows=[1], cols=[0, 1]),
    )
    rects02 = (full_rect(0, 2),)
    rects12 = (full_rect(0, 2),)
    cover = mk_kpartite(3, 2, [(0, 1, rects01), (0, 2, rects02), (1, 2, rects12)])
    v = validate_kpartite(cover)
    assert isinstance(v, KPartiteShuffleViolation)
    assert v.color == 0
    assert (v.part_u, v.part_v) == (0, 1)


def test_kpartite_coverage_violation():
    rects01 = (Rectangle(color=0, rows=[0], cols=[0, 1]),)
    cover = mk_kpartite(2, 2, [(0, 1, rects01)])
    v = check_kpartite_coverage(cover)
    assert v == KPartiteCoverageViolation(part_a=0, part_b=1, row=1, col=0)


def test_kpartite_rejects_bad_pairs():
    with pytest.raises(ValueError):
        mk_kpartite(2, 2, [(1, 0, (full_rect(0, 2),))])
    with pytest.raises(ValueError):
        mk_kpartite(2, 2, [(0, 1, ()), (0, 1, ())])
    with pytest.raises(ValueError):
        mk_kpartite(2, 2, [(0, 1, (full_rect(0, 3),))])


# ---------------------------------------------------------------------------
# coverage scans against per-cell reference code


def reference_gap(rows, cols, rects):
    """First cell of rows x cols, row-major, in no rectangle of ``rects``."""
    for r in rows:
        for c in cols:
            if not any(r in rect.rows and c in rect.cols for rect in rects):
                return r, c
    return None


def whole_width_gap(rows, cols, rects):
    """First gap as a mask of every column finds it: the lowest bit of
    ``(1 << len(cols)) - 1`` that no rectangle on the row sets."""
    want = (1 << len(cols)) - 1
    for r in rows:
        gap = want & ~sum({1 << c for rect in rects if r in rect.rows for c in rect.cols})
        if gap:
            return r, (gap & -gap).bit_length() - 1
    return None


@st.composite
def column_sides(draw, n, pool):
    """A column side over range(n): one of the ``pool`` sets itself (an
    object other rectangles share), an equal but distinct copy of one, or
    a fresh set."""
    kind = draw(st.sampled_from(["shared", "copy", "fresh"]))
    if kind == "fresh":
        return draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    side = draw(st.sampled_from(pool))
    if kind == "shared":
        return side
    copy = frozenset(sorted(side))
    assert copy == side and copy is not side
    return copy


@st.composite
def partial_covers(draw):
    """Covers whose rectangles draw their columns from a few shared sets,
    sometimes with every row filled by one shared full-width rectangle
    apart from at most one row, so that both answers occur."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    full = frozenset(range(n_cols))
    pool = draw(st.lists(st.frozensets(st.integers(0, n_cols - 1), min_size=1),
                         min_size=1, max_size=3)) + [full]
    row_sets = st.frozensets(st.integers(0, n_rows - 1), min_size=1)
    rects = [Rectangle(color=i, rows=draw(row_sets), cols=draw(column_sides(n_cols, pool)))
             for i in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        skip = draw(st.integers(-1, n_rows - 1))
        rects += [Rectangle(color=100 + r, rows={r}, cols=full) for r in range(n_rows) if r != skip]
    return RectangleCover(n_rows=n_rows, n_cols=n_cols, rectangles=draw(st.permutations(rects)))


@settings(max_examples=300, deadline=None)
@given(partial_covers())
def test_check_coverage_matches_per_cell_reference(cover):
    rows, cols = range(cover.n_rows), range(cover.n_cols)
    gap = reference_gap(rows, cols, cover.rectangles)
    assert check_coverage(cover) == (None if gap is None else CoverageViolation(*gap))
    # a range of columns from 0 reads each row's lowest unset bit, with no
    # mask of the whole width; every answer is the one that mask gives
    assert _first_gap(rows, cols, cover.rectangles) == whole_width_gap(rows, cols, cover.rectangles)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_gap_matches_reference_on_wide_column_sets(data):
    # column sets up to 120 wide, which span several bytes of a mask
    n_cols = data.draw(st.integers(1, 120))
    sides = st.frozensets(st.integers(0, n_cols - 1), min_size=1)
    rects = [
        Rectangle(color=i, rows=data.draw(st.frozensets(st.integers(0, 2), min_size=1)),
                  cols=data.draw(st.one_of(sides, st.just(frozenset(range(n_cols))))))
        for i in range(data.draw(st.integers(0, 4)))
    ]
    for rect in rects:
        assert _bitmask(rect.cols) == sum(1 << c for c in rect.cols)
    for cols in (range(n_cols), sorted(data.draw(sides))):
        assert _first_gap(range(3), cols, rects) == reference_gap(range(3), cols, rects)


def test_a_declared_width_costs_nothing_until_a_rectangle_reaches_it():
    # no int of 10**30 bits can be built (test_cli runs 10**11 columns, a
    # 12.5 GB mask, in a child with capped memory)
    width = 10**30
    assert check_coverage(RectangleCover(1, width, ())) == CoverageViolation(0, 0)
    rect = Rectangle(color=0, rows=[0], cols=[0, 1])
    assert check_coverage(RectangleCover(1, width, (rect,))) == CoverageViolation(0, 2)
    assert check_kpartite_coverage(KPartiteCover(2, width, ())) == KPartiteCoverageViolation(
        part_a=0, part_b=1, row=0, col=0)


@st.composite
def kpartite_covers(draw):
    """k-partite covers built color by color from touched sets, each pair's
    block split into two rectangles whose column sides are shared objects
    or equal copies (one set reused across colors and part pairs), plus
    stray rectangles and at most one dropped rectangle, so that complete,
    incomplete, valid and invalid covers all occur."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    full = frozenset(range(n))
    pool = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                         min_size=1, max_size=3)) + [full]
    pairs = {pair: [] for pair in combinations(range(k), 2)}
    touched_sets = draw(st.lists(
        st.lists(st.one_of(st.just(frozenset()), st.sampled_from(pool)), min_size=k, max_size=k),
        min_size=1, max_size=3,
    ))
    if draw(st.booleans()):  # one color on every edge: coverage is complete
        touched_sets.append([full] * k)
    for color, touched in enumerate(touched_sets):
        for a, b in pairs:
            if touched[a] and touched[b]:
                rows = sorted(touched[a])
                cut = draw(st.integers(1, len(rows)))
                for part in (rows[:cut], rows[cut:]):
                    if part:
                        cols = touched[b] if draw(st.booleans()) else frozenset(sorted(touched[b]))
                        pairs[a, b].append(Rectangle(color=color, rows=part, cols=cols))
    for _ in range(draw(st.integers(0, 2))):
        rect = Rectangle(color=draw(st.integers(0, 4)),
                         rows=draw(st.frozensets(st.integers(0, n - 1), min_size=1)),
                         cols=draw(column_sides(n, pool)))
        pairs[draw(st.sampled_from(sorted(pairs)))].append(rect)
    nonempty = sorted(pair for pair, rects in pairs.items() if rects)
    if nonempty and draw(st.booleans()):
        rects = pairs[draw(st.sampled_from(nonempty))]
        rects.pop(draw(st.integers(0, len(rects) - 1)))
    return KPartiteCover(k=k, n=n, pairs=tuple((a, b, tuple(rects)) for (a, b), rects in pairs.items()))


def reference_colors(cover):
    return {rect.color for _, _, rects in cover.pairs for rect in rects}


def reference_touched(cover, color):
    """Per-part vertex sets of ``color``, read off the raw rectangles: the
    cover's own grouping is what the checks under test read."""
    touched = [set() for _ in range(cover.k)]
    for a, b, rects in cover.pairs:
        for rect in rects:
            if rect.color == color:
                touched[a].update(rect.rows)
                touched[b].update(rect.cols)
    return touched


def reference_kpartite_violation(cover):
    by_pair = {(a, b): rects for a, b, rects in cover.pairs}
    for color in sorted(reference_colors(cover)):
        touched = reference_touched(cover, color)
        for a, b in combinations(range(cover.k), 2):
            own = [rect for rect in by_pair.get((a, b), ()) if rect.color == color]
            gap = reference_gap(sorted(touched[a]), sorted(touched[b]), own)
            if gap is not None:
                return KPartiteShuffleViolation(color=color, part_u=a, u=gap[0], part_v=b, v=gap[1])
    return None


def reference_kpartite_gap(cover):
    by_pair = {(a, b): rects for a, b, rects in cover.pairs}
    for a, b in combinations(range(cover.k), 2):
        gap = reference_gap(range(cover.n), range(cover.n), by_pair.get((a, b), ()))
        if gap is not None:
            return KPartiteCoverageViolation(part_a=a, part_b=b, row=gap[0], col=gap[1])
    return None


@settings(max_examples=300, deadline=None)
@given(kpartite_covers())
def test_kpartite_scans_match_per_cell_reference(cover):
    assert validate_kpartite(cover) == reference_kpartite_violation(cover)
    for _, _, rects in cover.pairs:
        part = range(cover.n)
        assert _first_gap(part, part, rects) == whole_width_gap(part, part, rects)
    assert check_kpartite_coverage(cover) == reference_kpartite_gap(cover)
    assert cover.colors() == reference_colors(cover)
    for color in range(6):  # colors 5 and up touch nothing
        assert cover.touched_sets(color) == reference_touched(cover, color)


def reference_mono_kpartite(cover, p):
    for color in sorted(reference_colors(cover)):
        touched = reference_touched(cover, color)
        if all(len(t) >= p for t in touched):
            return KPartiteWitness(color=color, parts=tuple(frozenset(sorted(t)[:p]) for t in touched))
    return None


@settings(max_examples=300, deadline=None)
@given(kpartite_covers())
def test_find_mono_kpartite_matches_per_color_reference(cover):
    violation = reference_kpartite_violation(cover) or reference_kpartite_gap(cover)
    for p in range(1, cover.n + 2):
        if violation is not None:
            with pytest.raises(NotShufflePreserved) as info:
                find_mono_kpartite(cover, p)
            assert info.value.violation == violation
        else:
            assert find_mono_kpartite(cover, p) == reference_mono_kpartite(cover, p)


def test_kpartite_cover_is_grouped_at_most_once(monkeypatch):
    # every fast k-partite check reads the grouping the cover keeps; the
    # raw color pass that feeds the brute-force oracle builds none
    built = []
    group = KPartiteCover._groups.func

    def counted(cover):
        built.append(cover)
        return group(cover)

    kept = functools.cached_property(counted)
    kept.__set_name__(KPartiteCover, "_groups")
    monkeypatch.setattr(KPartiteCover, "_groups", kept)
    cover = construct_kpartite_avoiding(4, 2, 3)
    assert cover.colors() == {0, 1}
    assert find_mono_kpartite_brute(cover, 2) is not None
    assert built == []
    assert kpartite_violation(cover) is None
    for p in range(1, 6):
        assert find_mono_kpartite(cover, p) == find_mono_kpartite_brute(cover, p)
    for _ in range(3):
        assert [cover.touched_sets(color) for color in (0, 1, 2)] == [
            [{0, 2}, {0, 1, 2, 3}, {0, 1, 2, 3}],
            [{1, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}],
            [set(), set(), set()],
        ]
    assert built == [cover]


def test_touched_sets_cannot_change_the_kept_grouping():
    cover = mk_kpartite(3, 2, [(a, b, (full_rect(0, 2),)) for a, b in ((0, 1), (0, 2), (1, 2))])
    witness = find_mono_kpartite(cover, 2)
    assert witness == KPartiteWitness(color=0, parts=({0, 1},) * 3)
    # in the kept grouping, an emptied set would hide the witness, and a
    # vertex 2 would be a swap violation
    for change in (set.clear, lambda touched: touched.add(2)):
        for touched in chain(cover.touched_sets(0), cover.touched_sets(1)):
            change(touched)
        assert validate_kpartite(cover) is None
        assert find_mono_kpartite(cover, 2) == witness
        assert cover.touched_sets(0) == [{0, 1}] * 3
        assert cover.touched_sets(1) == [set()] * 3


def test_kept_grouping_is_not_part_of_the_cover():
    fresh, grouped = construct_kpartite_avoiding(4, 2, 3), construct_kpartite_avoiding(4, 2, 3)
    assert kpartite_violation(grouped) is None
    assert "_groups" in vars(grouped) and "_groups" not in vars(fresh)
    assert grouped == fresh and hash(grouped) == hash(fresh) and repr(grouped) == repr(fresh)
    for twin in (dataclasses.replace(grouped), copy.copy(grouped), copy.deepcopy(grouped)):
        assert twin == grouped and "_groups" not in vars(twin)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(grouped, protocol)
        assert data == pickle.dumps(fresh, protocol)
        restored = pickle.loads(data)
        assert restored == grouped and "_groups" not in vars(restored)
        assert validate_kpartite(restored) is None


# ---------------------------------------------------------------------------
# span, profile and codec kernels against cell-by-cell reference code


def reference_spans(cells):
    spans = {}
    for r, row in enumerate(cells):
        for c, color in enumerate(row):
            rows, cols = spans.setdefault(color, (set(), set()))
            rows.add(r)
            cols.add(c)
    return spans


def reference_violation(cells):
    """First miscolored cell of the first color's span, scanned row-major,
    with its witnesses taken from the same row and column."""
    spans = reference_spans(cells)
    for color in sorted(spans):
        rows, cols = (sorted(side) for side in spans[color])
        for r in rows:
            for c in cols:
                if cells[r][c] != color:
                    v = next(x for x in cols if cells[r][x] == color)
                    u_prime = next(x for x in rows if cells[x][c] == color)
                    return ShuffleViolation(u=r, u_prime=u_prime, v=v, v_prime=c, color=color)
    return None


def shared_rows(cells, share):
    """``cells`` with row r replaced by the first earlier row equal to it
    wherever ``share[r]`` is set: repeated rows become partly shared
    objects, partly equal copies."""
    first = {}
    return tuple(first.setdefault(row, row) if flag else row for row, flag in zip(cells, share))


@st.composite
def matrices(draw):
    """Small matrices: blow-ups of a grid of distinct colors (shuffle-
    preserved, with repeated or all-distinct rows), the same with one cell
    recolored (a planted swap violation, unless the recoloring happens to
    keep the property), or cells drawn from a small palette.  A repeated
    row is sometimes the same tuple object and sometimes an equal copy."""
    matrix = draw(_matrices())
    share = draw(st.lists(st.booleans(), min_size=matrix.n_rows, max_size=matrix.n_rows))
    return ColorMatrix(shared_rows(matrix.cells, share))


@st.composite
def _matrices(draw):
    n_rows, n_cols = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ))
    kind = draw(st.sampled_from(["blowup", "distinct_rows", "planted", "palette"]))
    if kind == "palette":
        palette = draw(st.integers(1, 4))
        flat = draw(st.lists(st.integers(0, palette), min_size=n_rows * n_cols,
                             max_size=n_rows * n_cols))
        return ColorMatrix(tuple(tuple(flat[r * n_cols:(r + 1) * n_cols]) for r in range(n_rows)))
    if kind == "distinct_rows":
        row_class = list(range(n_rows))
    else:
        row_class = draw(st.lists(st.integers(0, n_rows - 1), min_size=n_rows, max_size=n_rows))
    col_class = draw(st.lists(st.integers(0, n_cols - 1), min_size=n_cols, max_size=n_cols))
    offset = draw(st.integers(0, 50))
    cells = [[offset + row_class[r] * n_cols + col_class[c] for c in range(n_cols)]
             for r in range(n_rows)]
    if kind == "planted":
        r, c = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        r2, c2 = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        cells[r][c] = cells[r2][c2]
    return ColorMatrix(tuple(map(tuple, cells)))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_span_kernels_match_cell_by_cell_reference(matrix):
    cells = matrix.cells
    n_distinct, spans = _color_spans(matrix)
    assert n_distinct == len(set(cells))
    assert {color: (set(chain.from_iterable(groups)), cols)
            for color, (groups, cols) in spans.items()} == reference_spans(cells)
    for groups, _ in spans.values():  # each group is one distinct row, listed once
        assert all(len({cells[r] for r in group}) == 1 for group in groups)
        assert len({cells[group[0]] for group in groups}) == len(groups)

    expected = reference_violation(cells)
    assert validate_shuffle_preserved(matrix) == expected
    if expected is None:
        cover = matrix_to_rectangles(matrix)
        assert [(r.color, r.rows, r.cols) for r in cover.rectangles] == [
            (color, frozenset(rows), frozenset(cols))
            for color, (rows, cols) in sorted(reference_spans(cells).items())
        ]
    else:
        with pytest.raises(NotShufflePreserved) as exc:
            matrix_to_rectangles(matrix)
        assert exc.value.violation == expected


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_profile_and_codec_kernels_match_cell_by_cell_reference(matrix):
    cells = matrix.cells
    row_counts = tuple(len({color for color in row}) for row in cells)
    col_counts = tuple(len({row[c] for row in cells}) for c in range(matrix.n_cols))
    prof = matrix_local_profile(matrix)
    assert (prof.row_counts, prof.col_counts) == (row_counts, col_counts)
    assert prof.local_width == max(row_counts + col_counts)
    assert prof.global_colors == len({color for row in cells for color in row})

    text = write_matrix(matrix)
    lines = [f"{matrix.n_rows} {matrix.n_cols}"]
    lines += [" ".join(str(color) for color in row) for row in cells]
    assert text == "\n".join(lines) + "\n"
    assert parse_matrix(text) == matrix


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_matrix_paths_match_the_cover_paths(matrix):
    """Reading color classes off a matrix gives what its cover gives: the
    same fast-detector witness for every p and the same JSON object, or
    the same violation from every path."""
    ps = range(1, max(matrix.n_rows, matrix.n_cols) + 2)
    violation = validate_shuffle_preserved(matrix)
    if violation is not None:
        calls = [matrix_to_rectangles, color_classes, cover_to_obj]
        calls += [lambda matrix, p=p: find_mono_biclique_fast(matrix, p) for p in ps]
        for call in calls:
            with pytest.raises(NotShufflePreserved) as exc:
                call(matrix)
            assert exc.value.violation == violation
        return
    cover = matrix_to_rectangles(matrix)
    assert [(c, frozenset(rows), frozenset(cols)) for c, rows, cols in color_classes(matrix)] == [
        (r.color, r.rows, r.cols) for r in cover.rectangles
    ]
    assert cover_to_obj(matrix) == cover_to_obj(cover)
    for p in ps:
        assert find_mono_biclique_fast(matrix, p) == find_mono_biclique_fast(cover, p)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_fast_detector_on_a_matrix_matches_its_cover_and_the_brute_detector(matrix):
    """The detector reads only side counts off a matrix's spans: its answer
    for every p is its cover's and, within the brute detector's guards,
    the brute detector's.  A matrix that is not shuffle-preserved fails
    with its violation before p is looked at."""
    violation = validate_shuffle_preserved(matrix)
    if violation is not None:
        for p in (0, True, 1):
            with pytest.raises(NotShufflePreserved) as exc:
                find_mono_biclique_fast(matrix, p)
            assert exc.value.violation == violation
        return
    for p in (0, True):
        with pytest.raises(ValueError, match="p must be a positive integer") as exc:
            find_mono_biclique_fast(matrix, p)
        assert type(exc.value) is ValueError
    cover = matrix_to_rectangles(matrix)
    for p in range(1, max(matrix.n_rows, matrix.n_cols) + 2):
        witness = find_mono_biclique_fast(matrix, p)
        assert witness == find_mono_biclique_fast(cover, p)
        if p <= 6:  # the brute detector's default p guard; sides are at most 12
            assert witness == find_mono_biclique_brute(matrix, p)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_shared_rows_and_equal_copies_give_the_same_classes_and_profile(matrix):
    copies = ColorMatrix(tuple(tuple(list(row)) for row in matrix.cells))
    shared = ColorMatrix(shared_rows(matrix.cells, [True] * matrix.n_rows))
    assert len({*map(id, shared.cells)}) == len({*shared.cells})
    for variant in (matrix, copies, shared):
        cells = variant.cells
        prof = matrix_local_profile(variant)
        assert prof.row_counts == tuple(len(set(row)) for row in cells)
        assert prof.col_counts == tuple(len({row[c] for row in cells}) for c in range(len(cells[0])))
        assert prof.global_colors == len(set(chain.from_iterable(cells)))
        assert prof == matrix_local_profile(matrix)
        if validate_shuffle_preserved(variant) is not None:
            continue
        classes = color_classes(variant)
        # what the classes were before their sides were shared, as sets
        _, spans = _color_spans(variant)
        assert [(color, set(rows), set(cols)) for color, rows, cols in classes] == [
            (color, set(chain.from_iterable(spans[color][0])), spans[color][1])
            for color in sorted(spans)
        ]
        assert [(color, set(rows), set(cols)) for color, rows, cols in classes] == [
            (color, rows, cols) for color, (rows, cols) in sorted(reference_spans(cells).items())
        ]
        # a side one class shares with another cannot be changed by either
        for _, rows, cols in classes:
            assert type(rows) in (tuple, frozenset) and type(cols) in (tuple, frozenset)


@pytest.mark.parametrize("cells, message", [
    (((0, -1),) * 4, "color ids must be non-negative integers, got -1"),
    (((0, 1),) * 2 + ((0,),) + ((0, 1),) * 2, "ragged matrix rows"),
    (((0, 1), (2.5, 0), (0, -1), (2.5, 0)), "color ids must be non-negative integers, got 2.5"),
    (((0, True),) * 3 + ((0, -1),), "color ids must be non-negative integers, got True"),
])
def test_shared_rows_are_still_checked(cells, message):
    # tuple multiplication repeats one row object, so each bad row is
    # checked once and still named
    with pytest.raises(ValueError) as exc:
        ColorMatrix(cells)
    assert str(exc.value) == message


@given(st.integers(2, 6), st.integers(0, 5), st.sampled_from([-1, True, 1.5]))
def test_a_bad_value_in_a_shared_row_is_named(n_rows, pos, bad):
    row = [*range(6)]
    row[pos] = bad
    good, shared = tuple(range(6)), tuple(row)
    with pytest.raises(ValueError) as exc:
        ColorMatrix((good,) + (shared,) * n_rows)
    assert str(exc.value) == f"color ids must be non-negative integers, got {bad!r}"
