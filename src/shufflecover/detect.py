"""Monochromatic-subgraph detectors and superimposed-clique counting.

The fast bipartite detector reads witnesses straight off rectangle sides;
the brute-force detector enumerates row subsets over column bitmasks with
no structural assumptions and serves as the oracle the fast path is checked
against.  The k-partite detector scans each color's touched sets: on a
validated input every color class is complete multipartite on the vertices
it touches, so a color with p touched vertices in every part is a witness.

Superimposed cliques: given one clique of vertices per color on a shared
vertex set, a t-subset of colors is *t-superimposed* on the intersection of
its cliques.  :func:`superimposed_bound` gives the averaging lower bound
for the best t-subset; :func:`max_superimposed` finds it exactly.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Union

from .core import (
    CliqueFamily,
    ColorMatrix,
    KPartiteCover,
    KPartiteWitness,
    NotShufflePreserved,
    RectangleCover,
    SuperimposedWitness,
    Witness,
    check_ints,
    kpartite_violation,
    _color_groups,
    _shuffle_spans,
)


class InstanceTooLarge(ValueError):
    """Brute-force input exceeds the documented size guard."""


class TooManySubsets(ValueError):
    """Exact superimposed search would enumerate too many color subsets."""


_P = "p must be a positive integer, got {!r}"
_GUARD = "size guards must be positive integers, got {!r}"


# ---------------------------------------------------------------------------
# bipartite detectors

EdgeTriple = tuple[int, int, int]
BruteInput = Union[ColorMatrix, RectangleCover, Iterable[EdgeTriple]]


def find_mono_biclique_fast(instance: ColorMatrix | RectangleCover, p: int) -> Witness | None:
    """First color class with both sides >= p, truncated to its lowest p
    rows and columns.  Shuffle-preservation makes this scan complete: every
    monochromatic biclique sits inside its color's rectangle.

    Takes a cover, scanned in cover order, or a matrix, whose lowest color
    with enough rows and columns wins (the order of its
    :func:`~shufflecover.core.matrix_to_rectangles` cover), so a matrix
    gives the witness its cover gives.  On a matrix only the side counts
    are read off its color spans; sides are built for the witness alone.
    A matrix that is not shuffle-preserved raises
    :class:`NotShufflePreserved` before ``p`` is checked.
    """
    if isinstance(instance, RectangleCover):
        check_ints(_P, p, low=1)
        for rect in instance.rectangles:
            if len(rect.rows) >= p and len(rect.cols) >= p:
                return Witness(
                    color=rect.color, rows=sorted(rect.rows)[:p], cols=sorted(rect.cols)[:p]
                )
        return None
    spans = _shuffle_spans(instance)
    check_ints(_P, p, low=1)
    # a color's rows are those of its row groups; count them only once its
    # columns reach p
    color = min(
        (c for c, (groups, cols) in spans.items() if len(cols) >= p and sum(map(len, groups)) >= p),
        default=None,
    )
    if color is None:
        return None
    groups, cols = spans[color]
    rows = sorted(chain.from_iterable(groups))
    return Witness(color=color, rows=rows[:p], cols=sorted(cols)[:p])


def _edge_triples(graph: BruteInput) -> tuple[int, int, Iterable[EdgeTriple]]:
    """Normalize any brute-force input to (n_rows, n_cols, edges).  A matrix
    or cover knows its sides, so its edges are a generator that lists
    nothing until iterated; raw triples are listed to read their sides."""
    if isinstance(graph, ColorMatrix):
        edges: Iterable[EdgeTriple] = (
            (r, c, color)
            for r, row in enumerate(graph.cells)
            for c, color in enumerate(row)
        )
        return graph.n_rows, graph.n_cols, edges
    if isinstance(graph, RectangleCover):
        edges = (
            (r, c, rect.color)
            for rect in graph.rectangles
            for r in rect.rows
            for c in rect.cols
        )
        return graph.n_rows, graph.n_cols, edges
    edges = list(graph)
    n_rows = n_cols = 0
    for u, v, color in edges:
        check_ints("edge triple entries must be non-negative integers, got {!r}", u, v, color)
        n_rows = max(n_rows, u + 1)
        n_cols = max(n_cols, v + 1)
    return n_rows, n_cols, edges


def find_mono_biclique_brute(
    graph: BruteInput, p: int, *, max_n: int = 24, max_p: int = 6
) -> Witness | None:
    """Exhaustive monochromatic K_{p,p} search, no shuffle assumption.

    Accepts a matrix, a cover, or raw (row, col, color) triples.  Per color,
    rows carrying >= p edges of that color are enumerated as p-subsets and
    their column bitmasks intersected.  Colors ascend and subsets run in
    lexicographic order, so the returned witness is deterministic.

    p greater than either dimension returns None outright.  Beyond that the
    guard raises :class:`InstanceTooLarge` for sides > max_n (default 24,
    chosen so column masks fit comfortably in machine words) or p > max_p
    (default 6); both limits are overridable keywords.
    """
    check_ints(_P, p, low=1)
    check_ints(_GUARD, max_n, max_p, low=1)
    n_rows, n_cols, edges = _edge_triples(graph)
    if n_rows == 0 or n_cols == 0 or p > min(n_rows, n_cols):
        return None
    if max(n_rows, n_cols) > max_n:
        raise InstanceTooLarge(f"sides up to {max(n_rows, n_cols)} exceed the guard ({max_n})")
    if p > max_p:
        raise InstanceTooLarge(f"p={p} exceeds the guard ({max_p})")

    masks: dict[int, dict[int, int]] = {}
    for u, v, color in edges:
        rows = masks.setdefault(color, {})
        rows[u] = rows.get(u, 0) | (1 << v)
    for color in sorted(masks):
        candidate_rows = sorted(
            u for u, mask in masks[color].items() if mask.bit_count() >= p
        )
        if len(candidate_rows) < p:
            continue
        for subset in combinations(candidate_rows, p):
            common = masks[color][subset[0]]
            for u in subset[1:]:
                common &= masks[color][u]
                if common.bit_count() < p:
                    break
            else:
                cols = []
                while len(cols) < p:
                    low = common & -common
                    cols.append(low.bit_length() - 1)
                    common ^= low
                return Witness(color=color, rows=frozenset(subset), cols=frozenset(cols))
    return None


def verify_biclique_witness(graph: BruteInput, witness: Witness, p: int) -> bool:
    """Edge-by-edge check that the witness is a monochromatic K_{p,p}."""
    check_ints(_P, p, low=1)
    if len(witness.rows) < p or len(witness.cols) < p:
        return False
    _, _, edges = _edge_triples(graph)
    present = {(u, v) for u, v, color in edges if color == witness.color}
    return all((u, v) in present for u in witness.rows for v in witness.cols)


# ---------------------------------------------------------------------------
# k-partite detection


def _kpartite_edges(cover: KPartiteCover) -> dict[tuple[int, int], set[tuple[int, int, int]]]:
    """Each part pair's edges as (color, u, v), listed off the raw
    rectangles with no shuffle assumption."""
    edges: dict[tuple[int, int], set[tuple[int, int, int]]] = {}
    for a, b, rects in cover.pairs:
        cells = edges.setdefault((a, b), set())
        for rect in rects:
            cells.update((rect.color, u, v) for u in rect.rows for v in rect.cols)
    return edges


def find_mono_kpartite(cover: KPartiteCover, p: int) -> KPartiteWitness | None:
    """Monochromatic complete k-partite subgraph with p vertices per part,
    for complete shuffle-preserved colorings with any number of colors.

    Scans colors in ascending order for one that touches at least p
    vertices in every part, and returns its lowest p per part.  The scan is
    exact because a validated color carries every edge between its touched
    sets, so each color class is complete multipartite on what it touches.
    On a 2-coloring a witness is guaranteed when 2(p-1) < n; above that, or
    with more colors, the result may be None.  Raises
    :class:`NotShufflePreserved` (also used for incomplete coverage) on bad
    input.
    """
    check_ints(_P, p, low=1)
    violation = kpartite_violation(cover)
    if violation is not None:
        raise NotShufflePreserved(violation)
    groups = _color_groups(cover)
    for color in sorted(groups):
        touched = groups[color][0]
        if len(touched) == cover.k and all(len(t) >= p for t in touched.values()):
            return KPartiteWitness(
                color=color,
                parts=tuple(frozenset(sorted(touched[part])[:p]) for part in range(cover.k)),
            )
    return None


def find_mono_kpartite_brute(
    cover: KPartiteCover, p: int, *, max_combos: int = 10**6
) -> KPartiteWitness | None:
    """Exhaustive k-partite search by vertex enumeration, no assumptions.

    The independent oracle for :func:`find_mono_kpartite` and for the
    avoidance constructions: walks p-subsets part by part, checking every
    cross edge against the raw edge sets.  Any color count is fine.
    """
    check_ints(_P, p, low=1)
    check_ints(_GUARD, max_combos, low=1)
    per_part = math.comb(cover.n, p)  # 0 when p > n: no subset, no witness
    if per_part**cover.k > max_combos:
        raise InstanceTooLarge(
            f"{per_part ** cover.k} vertex combinations exceed the guard ({max_combos})"
        )
    edges = _kpartite_edges(cover)
    colors = sorted(cover.colors())

    def compatible(color: int, chosen: list[tuple[int, ...]], part: int, pick: tuple[int, ...]) -> bool:
        for a, prior in enumerate(chosen):
            pair_edges = edges.get((a, part), set())
            for u in prior:
                for v in pick:
                    if (color, u, v) not in pair_edges:
                        return False
        return True

    def extend(color: int, chosen: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...] | None:
        part = len(chosen)
        if part == cover.k:
            return tuple(chosen)
        for pick in combinations(range(cover.n), p):
            if compatible(color, chosen, part, pick):
                chosen.append(pick)
                result = extend(color, chosen)
                if result is not None:
                    return result
                chosen.pop()
        return None

    for color in colors:
        result = extend(color, [])
        if result is not None:
            return KPartiteWitness(color=color, parts=tuple(frozenset(t) for t in result))
    return None


def verify_kpartite_witness(cover: KPartiteCover, witness: KPartiteWitness, p: int) -> bool:
    """Edge-by-edge check of a k-partite witness against the raw edges."""
    check_ints(_P, p, low=1)
    if len(witness.parts) != cover.k or any(len(part) < p for part in witness.parts):
        return False
    edges = _kpartite_edges(cover)
    for a in range(cover.k):
        for b in range(a + 1, cover.k):
            cells = edges.get((a, b), set())
            for u in witness.parts[a]:
                for v in witness.parts[b]:
                    if (witness.color, u, v) not in cells:
                        return False
    return True


# ---------------------------------------------------------------------------
# superimposed cliques


def _check_t(family: CliqueFamily, t: int) -> None:
    check_ints("t must be a positive integer, got {!r}", t, low=1)
    if t > family.m:
        raise ValueError(f"t must be in 1..{family.m}, got {t}")


def superimposed_bound(family: CliqueFamily, t: int) -> int:
    """Averaging lower bound on the best t-subset intersection.

    Counting (vertex, t-subset of covering colors) pairs two ways: a vertex
    in exactly i cliques contributes C(i, t), and the C(m, t) subsets share
    the total, so the best subset meets at least the ceiling of the mean.
    Exact integer arithmetic throughout.
    """
    _check_t(family, t)
    total = sum(
        count * math.comb(i, t)
        for i, count in family.membership_histogram().items()
        if i >= t
    )
    return -(-total // math.comb(family.m, t))


def max_superimposed(
    family: CliqueFamily, t: int, *, max_subsets: int = 10**6
) -> SuperimposedWitness:
    """Exact best t-subset by enumeration, lexicographically smallest color
    set on ties.  Raises :class:`TooManySubsets` past the subset guard."""
    _check_t(family, t)
    check_ints(_GUARD, max_subsets, low=1)
    m = family.m
    if math.comb(m, t) > max_subsets:
        raise TooManySubsets(f"C({m}, {t}) exceeds the guard ({max_subsets})")
    by_color = dict(family.cliques)
    best: tuple[frozenset[int], frozenset[int]] | None = None
    for subset in combinations(sorted(by_color), t):
        common = frozenset.intersection(*(by_color[c] for c in subset))
        if best is None or len(common) > len(best[1]):
            best = (frozenset(subset), common)
    assert best is not None
    return SuperimposedWitness(colors=best[0], vertices=best[1])
