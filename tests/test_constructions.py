"""Construction tests: golden matrix, doubling, mod-m, random covers."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecover import (
    ColorMatrix,
    GenerationFailed,
    check_coverage,
    check_kpartite_coverage,
    construct_block_circulant,
    construct_kpartite_avoiding,
    construct_mod_m,
    construct_recursive_matrix,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    guaranteed_p,
    local_profile,
    matrix_local_profile,
    matrix_to_rectangles,
    random_cover,
    rectangles_to_matrix,
    validate_kpartite,
    validate_shuffle_preserved,
)

GOLDEN_4X4 = (
    (1, 5, 2, 2),
    (1, 4, 3, 4),
    (8, 5, 8, 7),
    (6, 6, 3, 7),
)


def test_recursive_matrix_levels():
    # level k is 2^k on a side, and the 4x4 base is the lowest level
    for k in (2, 5):
        matrix = construct_recursive_matrix(k)
        assert matrix.n_rows == matrix.n_cols == 1 << k
    with pytest.raises(ValueError):
        construct_recursive_matrix(1)


def test_level_two_is_the_golden_matrix():
    assert construct_recursive_matrix(2).cells == GOLDEN_4X4


def test_level_three_shifts_quadrants():
    m3 = construct_recursive_matrix(3)
    assert m3.n_rows == 8 and m3.n_cols == 8
    # mu = 8 for the base, so quadrants are base, base+8, base+16, base+24
    for r in range(4):
        for c in range(4):
            base = GOLDEN_4X4[r][c]
            assert m3.cells[r][c] == base
            assert m3.cells[r][c + 4] == base + 8
            assert m3.cells[r + 4][c] == base + 16
            assert m3.cells[r + 4][c + 4] == base + 24


@pytest.mark.parametrize("k,side,width,n_colors", [(2, 4, 3, 8), (3, 8, 6, 32), (4, 16, 12, 128)])
def test_recursive_matrix_invariants(k, side, width, n_colors):
    matrix = construct_recursive_matrix(k)
    assert matrix.n_rows == matrix.n_cols == side
    assert validate_shuffle_preserved(matrix) is None
    prof = matrix_local_profile(matrix)
    # every line sees exactly 3 * 2^(k-2) colors
    assert set(prof.row_counts) == {width}
    assert set(prof.col_counts) == {width}
    assert prof.local_width == width
    assert len(matrix.colors()) == n_colors


def test_recursive_rectangles_stay_thin():
    # doubling never grows a color class: all classes stay 1x2 or 2x1
    for k in (2, 3, 4):
        cover = matrix_to_rectangles(construct_recursive_matrix(k))
        assert all(r.min_side == 1 and r.area() == 2 for r in cover.rectangles)


def test_mod_m_frozen_small_case():
    assert construct_mod_m(5, 3).cells == (
        (0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2),
        (0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1),
    )


def test_mod_m_rejects_nonpositive():
    with pytest.raises(ValueError):
        construct_mod_m(0, 2)
    with pytest.raises(ValueError):
        construct_mod_m(3, 0)


@given(n=st.integers(1, 12), m=st.integers(1, 12))
def test_mod_m_is_valid_and_m_local(n, m):
    matrix = construct_mod_m(n, m)
    assert validate_shuffle_preserved(matrix) is None
    prof = matrix_local_profile(matrix)
    assert prof.local_width == min(m, n)
    assert prof.row_counts == (1,) * n
    # rows of one color are one shared tuple
    assert matrix.cells == tuple((i % m,) * n for i in range(n))
    assert len({*map(id, matrix.cells)}) == min(m, n)


@given(n=st.integers(1, 12), m=st.integers(1, 12))
def test_mod_m_color_classes_are_row_stripes(n, m):
    cover = matrix_to_rectangles(construct_mod_m(n, m))
    for rect in cover.rectangles:
        assert rect.cols == frozenset(range(n))
        assert set(rect.rows) == set(range(rect.color, n, m))
        # the thin side is what bounds monochromatic bicliques
        assert len(rect.rows) <= -(-n // m)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kpartite_avoiding_validates(k):
    cover = construct_kpartite_avoiding(5, 2, k)
    assert validate_kpartite(cover) is None
    assert check_kpartite_coverage(cover) is None
    assert len(cover.pairs) == k * (k - 1) // 2
    assert cover.colors() == {0, 1}


def test_kpartite_avoiding_touched_sets_are_thin_in_part_zero():
    cover = construct_kpartite_avoiding(7, 3, 3)
    for color in range(3):
        touched = cover.touched_sets(color)
        assert len(touched[0]) <= -(-7 // 3)
        assert touched[1] == set(range(7))
        assert touched[2] == set(range(7))


def test_kpartite_avoiding_more_colors_than_vertices():
    cover = construct_kpartite_avoiding(2, 4, 3)
    assert validate_kpartite(cover) is None
    assert check_kpartite_coverage(cover) is None


def test_random_cover_deterministic_per_seed():
    a = random_cover(6, 4, 2, seed=11)
    b = random_cover(6, 4, 2, seed=11)
    assert a == b
    assert a != random_cover(6, 4, 2, seed=12)


def test_random_cover_respects_all_budgets():
    cover = random_cover(8, 6, 1, seed=7)
    assert check_coverage(cover) is None
    prof = local_profile(cover)
    assert prof.local_width <= 6
    assert all(r.min_side <= 1 for r in cover.rectangles)
    # colors are consecutive creation ids
    assert sorted(cover.colors()) == list(range(len(cover.rectangles)))


def test_random_cover_infeasible_raises():
    # one color per line cannot cover a 4x4 grid with thin rectangles
    with pytest.raises(GenerationFailed):
        random_cover(4, 1, 1, seed=0)


def test_random_cover_rejects_nonpositive():
    with pytest.raises(ValueError):
        random_cover(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        random_cover(3, 1, 0, seed=0)


# every small grid setting, then a few corpus-sized ones with large seeds
RANDOM_COVER_SETTINGS = [
    (n, m, mms, seed)
    for n in range(1, 10)
    for m in range(1, n + 2)
    for mms in (1, 2, 3)
    for seed in (0, 1, 2)
] + [
    (16, 9, 1, 5),
    (20, 7, 3, 123456789),
    (24, 13, 1, 2**30 - 1),
    (12, 4, 3, 77),
    (24, 7, 4, 31337),
]
RANDOM_COVER_DIGEST = "684226d314ce284cd3167b046992c532807afed9cd66bc47f97433c81f5330eb"


def random_cover_digest(cases) -> str:
    """sha256 over the covers (or the failures) of ``cases``, in order."""
    digest = hashlib.sha256()
    for n, m, mms, seed in cases:
        try:
            cover = random_cover(n, m, mms, seed)
        except GenerationFailed:
            digest.update(b"failed;")
            continue
        rects = [(r.color, sorted(r.rows), sorted(r.cols)) for r in cover.rectangles]
        digest.update(repr(rects).encode() + b";")
    return digest.hexdigest()


def test_random_cover_pinned():
    # the same covers, failures and RNG draws on every Python version: the
    # benchmark corpus is built from random_cover
    assert random_cover_digest(RANDOM_COVER_SETTINGS) == RANDOM_COVER_DIGEST


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    m=st.integers(2, 5),
    mms=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_random_cover_invariants_when_feasible(n, m, mms, seed):
    try:
        cover = random_cover(n, m, mms, seed=seed)
    except GenerationFailed:
        return
    assert cover.n_rows == cover.n_cols == n
    assert check_coverage(cover) is None
    assert local_profile(cover).local_width <= m
    assert all(r.min_side <= mms for r in cover.rectangles)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_block_circulant_avoids_kpp_m_locally(data):
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.integers(1, n + 1), label="m")
    p = data.draw(st.integers(guaranteed_p(n, m) + 1, n + 1), label="p")
    cover = construct_block_circulant(n, m, p)
    assert cover.n_rows == cover.n_cols == n
    assert check_coverage(cover) is None
    assert local_profile(cover).local_width <= m
    assert all(rect.min_side <= p - 1 for rect in cover.rectangles)
    assert find_mono_biclique_fast(cover, p) is None
    if n <= 24 and p <= 6:  # within the brute detector's default guards
        assert find_mono_biclique_brute(cover, p) is None
    # the rectangles are disjoint: the cover is a matrix's, colored in order
    assert matrix_to_rectangles(rectangles_to_matrix(cover)) == cover


@pytest.mark.parametrize(
    "n, m, p, count",
    [(6, 3, 3, 3), (6, 2, 4, 2), (7, 3, 3, 8), (8, 5, 2, 16), (9, 6, 2, 18), (3, 1, 4, 1)],
)
def test_block_circulant_stripes_then_circulant(n, m, p, count):
    # N = ceil(n/(p-1)) groups: N <= m gives N stripes, else 2N rectangles
    cover = construct_block_circulant(n, m, p)
    assert len(cover.rectangles) == count
    assert [r.color for r in cover.rectangles] == list(range(count))


def test_block_circulant_refuses_guaranteed_cells():
    for n, m in ((9, 3), (8, 5), (1, 1), (5, 1), (40, 2)):
        bound = guaranteed_p(n, m)
        for p in range(1, bound + 1):
            with pytest.raises(ValueError, match=rf"^p = {p} is at most guaranteed_p"):
                construct_block_circulant(n, m, p)
        construct_block_circulant(n, m, bound + 1)
    for p in (0, True, 2.5):
        with pytest.raises(ValueError) as exc:
            construct_block_circulant(4, 2, p)
        assert str(exc.value).endswith(f", got {p!r}")


def test_golden_matrix_agrees_with_module_constant():
    # the generator's base and the matrix literal used across tests
    assert construct_recursive_matrix(2) == ColorMatrix(GOLDEN_4X4)
