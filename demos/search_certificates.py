"""Exhaustive avoidance search: verdicts with certificates.

The search decides whether an n x n grid admits a rectangle cover where
every line meets at most m rectangles and every rectangle is thinner than
p, which is exactly the existence of an m-local coloring avoiding a
monochromatic K_{p,p}.  On the p = 2 row the answer is closed-form, so
those cells are decided at the root, in one node; p >= 3 runs the
depth-first search.

Run: python3 demos/search_certificates.py
"""

from shufflecover import (
    CSV_HEADER,
    SearchParams,
    find_mono_biclique_brute,
    search_avoiding,
    table_row_csv,
    threshold_table,
)


def show_cell(n: int, m: int, p: int) -> None:
    outcome = search_avoiding(SearchParams(n, m, p))
    print(f"cell (n={n}, m={m}, p={p}): {outcome.verdict} "
          f"({outcome.stats.nodes} nodes, {outcome.stats.millis:.0f} ms)")
    if outcome.witness is not None:
        for rect in outcome.witness.rectangles:
            print(f"    color {rect.color}: rows {sorted(rect.rows)} x cols {sorted(rect.cols)}")
        check = find_mono_biclique_brute(outcome.witness, p)
        print(f"    brute-force re-check for K_{{{p},{p}}}: {check}")


def main() -> None:
    print("four decided cells")
    # guaranteed: two colors per line cannot dodge K_{2,2} at n=4
    show_cell(4, 2, 2)
    # open cell, SAT by the block-circulant cover: three colors per line suffice
    show_cell(4, 3, 2)
    # avoidable: mod-2 style covers exist
    show_cell(2, 2, 2)
    # open cell with p = 3, settled SAT by the depth-first search
    show_cell(7, 3, 3)
    print()

    print("threshold table for n <= 3")
    print(CSV_HEADER)
    for row in threshold_table(3):
        print(table_row_csv(row))
    print()
    print("guaranteed rows come back UNSAT, avoidable rows SAT; the open")
    print("rows in between are SAT, by construction for p = 2 and by search")
    print("for p >= 3.")


if __name__ == "__main__":
    main()
