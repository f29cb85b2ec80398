"""Every public size, id, count and limit is checked by ``check_ints``: a
bool, a float or a value below range raises a plain ValueError that names
the value, and the lowest valid value passes."""

import pytest

from shufflecover import (
    CliqueFamily,
    KPartiteCover,
    KPartiteWitness,
    Witness,
    avoidance_threshold,
    construct_kpartite_avoiding,
    construct_mod_m,
    construct_recursive_matrix,
    find_mono_biclique_brute,
    find_mono_biclique_fast,
    find_mono_kpartite,
    find_mono_kpartite_brute,
    guaranteed_p,
    local_profile,
    locality_violation,
    matrix_to_rectangles,
    max_superimposed,
    random_cover,
    superimposed_bound,
    verify_biclique_witness,
    verify_kpartite_witness,
)

COVER = matrix_to_rectangles(construct_mod_m(4, 2))
PROFILE = local_profile(COVER)
KCOVER = construct_kpartite_avoiding(1, 1, 2)
FAMILY = CliqueFamily(n_vertices=3, cliques=((0, frozenset({0, 1})), (1, frozenset({1, 2}))))

# (entry point and argument, call with the value in that slot, lowest valid value)
ENTRY_POINTS = [
    ("locality_violation-limit", lambda x: locality_violation(PROFILE, x), 0),
    ("guaranteed_p-n", lambda x: guaranteed_p(x, 2), 1),
    ("guaranteed_p-m", lambda x: guaranteed_p(4, x), 1),
    ("avoidance_threshold-n", lambda x: avoidance_threshold(x, 2), 1),
    ("avoidance_threshold-m", lambda x: avoidance_threshold(4, x), 1),
    ("KPartiteCover-part_id", lambda x: KPartiteCover(k=3, n=1, pairs=((x, 2, ()),)), 0),
    ("construct_mod_m-n", lambda x: construct_mod_m(x, 2), 1),
    ("construct_mod_m-m", lambda x: construct_mod_m(4, x), 1),
    ("construct_recursive_matrix-k", construct_recursive_matrix, 2),
    ("construct_kpartite_avoiding-n", lambda x: construct_kpartite_avoiding(x, 2, 3), 1),
    ("construct_kpartite_avoiding-m", lambda x: construct_kpartite_avoiding(3, x, 3), 1),
    ("construct_kpartite_avoiding-k", lambda x: construct_kpartite_avoiding(3, 2, x), 2),
    ("random_cover-n", lambda x: random_cover(x, 2, 2, seed=0), 1),
    ("random_cover-m", lambda x: random_cover(2, x, 2, seed=0), 1),
    ("random_cover-max_min_side", lambda x: random_cover(2, 2, x, seed=0), 1),
    ("find_mono_biclique_fast-p", lambda x: find_mono_biclique_fast(COVER, x), 1),
    ("find_mono_biclique_brute-p", lambda x: find_mono_biclique_brute(COVER, x), 1),
    (
        "find_mono_biclique_brute-max_n",
        lambda x: find_mono_biclique_brute([(0, 0, 0)], 1, max_n=x),
        1,
    ),
    ("find_mono_biclique_brute-max_p", lambda x: find_mono_biclique_brute(COVER, 1, max_p=x), 1),
    ("edge_triple-row", lambda x: find_mono_biclique_brute([(x, 0, 0)], 1), 0),
    ("edge_triple-col", lambda x: find_mono_biclique_brute([(0, x, 0)], 1), 0),
    ("edge_triple-color", lambda x: find_mono_biclique_brute([(0, 0, x)], 1), 0),
    (
        "verify_biclique_witness-p",
        lambda x: verify_biclique_witness(COVER, Witness(color=0, rows={0}, cols={0}), x),
        1,
    ),
    ("find_mono_kpartite-p", lambda x: find_mono_kpartite(KCOVER, x), 1),
    ("find_mono_kpartite_brute-p", lambda x: find_mono_kpartite_brute(KCOVER, x), 1),
    (
        "find_mono_kpartite_brute-max_combos",
        lambda x: find_mono_kpartite_brute(KCOVER, 1, max_combos=x),
        1,
    ),
    (
        "verify_kpartite_witness-p",
        lambda x: verify_kpartite_witness(KCOVER, KPartiteWitness(color=0, parts=({0}, {0})), x),
        1,
    ),
    ("superimposed_bound-t", lambda x: superimposed_bound(FAMILY, x), 1),
    ("max_superimposed-t", lambda x: max_superimposed(FAMILY, x), 1),
    ("max_superimposed-max_subsets", lambda x: max_superimposed(FAMILY, 2, max_subsets=x), 1),
]


@pytest.mark.parametrize("kind", ["bool", "float", "below"])
@pytest.mark.parametrize(
    "call, low", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_entry_point_refuses_bool_float_and_below_range(call, low, kind):
    call(low)
    bad = {"bool": True, "float": 2.5, "below": low - 1}[kind]
    with pytest.raises(ValueError) as exc:
        call(bad)
    # a plain ValueError from check_ints, not a guard's subclass of it
    assert type(exc.value) is ValueError
    assert str(exc.value).endswith(f", got {bad!r}")
