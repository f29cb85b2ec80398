"""Seeded inputs for the three workloads.

Every workload is a list of :class:`Op`, one CLI invocation each.  The seed
only picks details that do not change how much work an op does (which
random cover or clique family, which planted cell, which p inside one
detector regime), so runs on different seeds measure the same amount of
work.  The two search workloads have fixed inputs.

``truth`` carries what the oracle needs to judge the output; the program
never sees it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb

# Cells of the hot_cells workload.  (6,2,3) is an exhaustive UNSAT proof,
# (6,5,2), (7,6,2) and (8,7,2) are SAT, and the other four hit the budget at
# the commit that introduced this benchmark.
HOT_CELLS = ((6, 2, 3), (6, 3, 2), (6, 4, 2), (6, 5, 2), (7, 3, 3), (7, 5, 2), (7, 6, 2), (8, 7, 2))
# Wall-clock budget per hot cell, passed as --timeout-sec.  The slowest cell
# decided at that commit, (6,2,3), takes 4.5-8.3 s on a 2-core box, so the
# budget keeps a wide margin and `decided` does not flap with machine load.
HOT_BUDGET_S = 12.0
TABLE_N_MAX = 5


@dataclass
class Op:
    label: str
    argv: list[str]
    stdin: str = ""
    pipe_from: int | None = None  # stdin is the stdout of this earlier op of the same pass
    truth: dict = field(default_factory=dict)


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table_n5":
        return [Op("table", ["table", "--n-max", str(TABLE_N_MAX)], truth={"kind": "table"})]
    if workload == "hot_cells":
        # The order stays fixed: each budget hit leaves a memo whose freed
        # memory the allocator keeps, so the order moves the peak RSS (40-48
        # MB over ten shuffled orders).
        return [
            Op(
                f"search {n},{m},{p}",
                ["search", "--n", str(n), "--m", str(m), "--p", str(p),
                 "--timeout-sec", str(HOT_BUDGET_S)],
                truth={"kind": "search", "cell": (n, m, p)},
            )
            for n, m, p in HOT_CELLS
        ]
    if workload == "cli_pipe":
        return _cli_pipe(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int) -> list[Op]:
    """Untimed invocations run once before the timed passes, so that the
    allocator, caches and lazily built state are warm when timing starts."""
    if workload == "table_n5":
        return [Op("table", ["table", "--n-max", str(TABLE_N_MAX - 1)])]
    if workload == "hot_cells":
        return [Op("search 5,2,3", ["search", "--n", "5", "--m", "2", "--p", "3"])]
    return build(workload, seed)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _cover_text(n: int, rects) -> str:
    return json.dumps({
        "n_rows": n,
        "n_cols": n,
        "rectangles": [
            {"color": color, "rows": sorted(rows), "cols": sorted(cols)}
            for color, rows, cols in rects
        ],
    }) + "\n"


def _cli_pipe(rng: random.Random) -> list[Op]:
    from shufflecover.constructions import GenerationFailed, random_cover

    ops: list[Op] = []

    def add(label, argv, stdin="", pipe_from=None, **truth) -> int:
        ops.append(Op(label, argv, stdin, pipe_from, truth))
        return len(ops) - 1

    def detect_pair(label, src, p, exists, brute_ok, stdin=""):
        add(f"detect-fast {label} p={p}", ["detect", "--p", str(p)], stdin, src,
            kind="detect", exists=exists)
        if brute_ok:
            add(f"detect-brute {label} p={p}", ["detect", "--p", str(p), "--mode", "brute"],
                stdin, src, kind="detect", exists=exists)

    # Recursive matrices, 4x4 .. 128x128: no monochromatic K_{2,2} at any level.
    # Formats are fixed per size so that every seed parses the same bytes.
    for k, fmt in ((2, "matrix"), (3, "matrix"), (4, "matrix"), (4, "json"), (5, "matrix"),
                   (6, "matrix"), (7, "matrix"), (7, "json")):
        g = add(f"generate recursive k={k} {fmt}",
                ["generate", "--kind", "recursive", "--k", str(k), "--format", fmt],
                kind="recursive", k=k, fmt=fmt)
        add(f"validate recursive k={k} {fmt}", ["validate", "--max-local", str(3 << (k - 2))],
            pipe_from=g, kind="valid")
        p = rng.randint(1, 3)
        detect_pair(f"recursive k={k} {fmt}", g, p, p == 1, (1 << k) <= 24)

    # mod-m matrices up to 256x256: K_{p,p} exists exactly when p <= ceil(n/m).
    for n, fmt in ((4, "matrix"), (9, "matrix"), (16, "matrix"), (24, "matrix"), (24, "json"),
                   (64, "matrix"), (128, "matrix"), (128, "json"), (256, "matrix")):
        m = rng.randint(2, 5)
        g = add(f"generate modm n={n} m={m} {fmt}",
                ["generate", "--kind", "modm", "--n", str(n), "--m", str(m), "--format", fmt],
                kind="modm", n=n, m=m, fmt=fmt)
        add(f"validate modm n={n} {fmt}", ["validate", "--max-local", str(m)],
            pipe_from=g, kind="valid")
        # p <= 6 keeps every input up to 24x24 within the brute-force guard
        p = rng.randint(1, min(6, _ceil_div(n, m) + 1))
        detect_pair(f"modm n={n} m={m} {fmt}", g, p, p <= _ceil_div(n, m), n <= 24)

    # Seeded random multigraph covers, n <= 24: fast and brute must agree.
    for n in (6, 8, 12, 16, 20, 24):
        # random_cover succeeds with thin sides of 1 and about n/2 colors per
        # vertex, or with thin sides that fit ceil(n/m) rows per stripe
        if rng.random() < 0.5:
            thin, m = 1, n // 2 + 1 + rng.randint(0, 2)
        else:
            thin = rng.randint(2, 4)
            m = _ceil_div(n, thin) + rng.randint(0, 1)
        for _ in range(20):
            try:
                cover = random_cover(n, m, thin, seed=rng.randrange(1 << 30))
                break
            except GenerationFailed:
                continue
        else:
            raise RuntimeError(f"no random cover for n={n} m={m} thin={thin}")
        text = _cover_text(n, ((r.color, r.rows, r.cols) for r in cover.rectangles))
        add(f"validate random n={n}", ["validate", "--max-local", str(m)], text, kind="valid")
        p = rng.randint(1, 4)
        exists = any(len(r.rows) >= p and len(r.cols) >= p for r in cover.rectangles)
        detect_pair(f"random n={n}", None, p, exists, True, stdin=text)

    # k-partite 2-colorings, k = 3..8.  For k >= 6, p stays at or below
    # ceil(n/2), where the fast detector walks its whole k! recursion; k = 8
    # always takes p = 2, past the brute-force guard.
    for k, n in ((3, 6), (4, 5), (5, 4), (6, 4), (7, 4), (8, 4)):
        g = add(f"generate kpartite k={k} n={n}",
                ["generate", "--kind", "kpartite", "--n", str(n), "--m", "2", "--k", str(k)],
                kind="kpartite", n=n, m=2, k=k)
        add(f"validate kpartite k={k} n={n}", ["validate"], pipe_from=g, kind="valid")
        p = 2 if k == 8 else rng.randint(1, _ceil_div(n, 2) + (k <= 5))
        detect_pair(f"kpartite k={k} n={n}", g, p, p <= _ceil_div(n, 2), comb(n, p) ** k <= 10**6)

    # Clique families for the superimposed bound.
    for _ in range(4):
        nv, m = rng.randint(12, 40), rng.randint(4, 10)
        cliques = [
            {"color": c, "vertices": sorted(rng.sample(range(nv), rng.randint(nv // 4, 3 * nv // 4)))}
            for c in range(m)
        ]
        t = rng.randint(1, min(4, m))
        add(f"superimposed nv={nv} m={m} t={t}", ["superimposed", "--t", str(t)],
            json.dumps({"n_vertices": nv, "cliques": cliques}) + "\n", kind="superimposed")

    _planted(rng, add)
    return ops


def _planted(rng: random.Random, add) -> None:
    """Inputs with one planted violation each; all take the exit-2 path."""
    # Shuffle violation: recolor one cell of a mod-3 matrix with the next color.
    n = rng.randint(8, 20)
    rows = [[i % 3] * n for i in range(n)]
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] = (i + 1) % 3
    text = f"{n} {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    add(f"validate planted-shuffle n={n}", ["validate"], text, kind="violation", expect="shuffle")
    add(f"detect-fast planted-shuffle n={n}", ["detect", "--p", "2"], text,
        kind="violation", expect="shuffle")

    # Coverage gap: a mod-m cover JSON with one row dropped from its rectangle.
    n, m = rng.randint(8, 20), rng.randint(2, 4)
    gap = rng.randrange(n)
    rects = [(r, {i for i in range(r, n, m) if i != gap}, set(range(n))) for r in range(m)]
    add(f"validate planted-coverage n={n}", ["validate"], _cover_text(n, rects),
        kind="violation", expect="coverage")

    # Locality: a valid mod-m cover checked against a budget below its width.
    n, m = rng.randint(8, 20), rng.randint(3, 5)
    rects = [(r, set(range(r, n, m)), set(range(n))) for r in range(m)]
    add(f"validate planted-locality n={n} m={m}", ["validate", "--max-local", str(m - 1)],
        _cover_text(n, rects), kind="violation", expect="locality")

    # k-partite swap violation: one column cut out of a full rectangle.
    k, n = rng.randint(3, 5), rng.randint(3, 5)
    full = list(range(n))
    mod = [{"color": r, "rows": list(range(r, n, 2)), "cols": full} for r in range(2)]
    pairs = [{"parts": [0, b], "rectangles": mod} for b in range(1, k)]
    pairs += [
        {"parts": [a, b], "rectangles": [{"color": r, "rows": full, "cols": full} for r in range(2)]}
        for a in range(1, k) for b in range(a + 1, k)
    ]
    cut = rng.randrange(k - 1, len(pairs))
    col = rng.randrange(n)
    pairs[cut]["rectangles"][0]["cols"] = [c for c in full if c != col]
    add(f"validate planted-kpartite k={k} n={n}", ["validate"],
        json.dumps({"k": k, "n": n, "pairs": pairs}) + "\n", kind="violation",
        expect="kpartite_shuffle")
