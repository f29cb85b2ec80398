"""Correctness oracle, run outside the timed region.

``check(op, code, out, stdin)`` judges one CLI invocation against the
theory and against independent re-checks, and returns a :class:`Verdict`.
Inputs and outputs are parsed here with plain ``json`` and ``str.split``,
not with ``shufflecover.formats``, so a codec defect cannot hide itself.
The library is used only where the checks are specified in its terms:
``check_coverage`` and the brute-force detectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from shufflecover.core import KPartiteCover, Rectangle, RectangleCover, check_coverage
from shufflecover.detect import find_mono_biclique_brute, find_mono_kpartite_brute

from corpus import TABLE_N_MAX

SEARCH_CODES = {"SAT": 0, "UNSAT": 1, "INCONCLUSIVE": 4}


@dataclass
class Verdict:
    attempted: int = 1
    failures: list[str] = field(default_factory=list)
    decided: int = 0
    # counts that a deterministic program must repeat exactly: key -> value
    counts: dict = field(default_factory=dict)


def guaranteed_p(n: int, m: int) -> int:
    """The paper's guarantee bound, restated here independently of core."""
    return n if m == 1 else min(n, (n - 1) // (2 * (m - 1)) + 1)


def regime(n: int, m: int, p: int) -> str:
    if p <= guaranteed_p(n, m):
        return "guaranteed"
    return "avoidable" if p > -(-n // m) else "open"


def normalize(op, out: str) -> str:
    """Output with its timing fields removed, for comparing passes."""
    kind = op.truth["kind"]
    if kind == "table":
        return "\n".join(line.rsplit(",", 1)[0] for line in out.splitlines())
    if kind == "search":
        try:
            obj = json.loads(out)
            obj["stats"].pop("millis", None)
            return json.dumps(obj, sort_keys=True)
        except (ValueError, KeyError, TypeError, AttributeError):
            return out
    return out


_UNPARSEABLE = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def check(op, code: int, out: str, stdin: str) -> Verdict:
    kind = op.truth["kind"]
    if kind == "table":
        try:
            return _check_table(code, out)
        except _UNPARSEABLE as exc:
            cells = TABLE_N_MAX * TABLE_N_MAX * (TABLE_N_MAX + 1)
            return Verdict(cells, [f"table: unparseable output: {exc!r}"] * cells)
    verdict = Verdict()
    try:
        problem = _CHECKS[kind](op, code, out, stdin, verdict)
    except _UNPARSEABLE as exc:
        problem = f"unparseable output: {type(exc).__name__}: {exc}"
    if problem:
        verdict.failures.append(f"{op.label}: exit {code}: {problem}")
    elif kind != "search":
        verdict.decided = 1
    return verdict


# ---------------------------------------------------------------------------
# search workloads


def _check_table(code: int, out: str) -> Verdict:
    cells = [
        (n, m, p)
        for n in range(1, TABLE_N_MAX + 1)
        for m in range(1, TABLE_N_MAX + 1)
        for p in range(1, TABLE_N_MAX + 2)
    ]
    verdict = Verdict(attempted=len(cells))
    lines = out.splitlines()
    if code != 0 or not lines or lines[0] != "n,m,p,regime,verdict,nodes,millis":
        verdict.failures = [f"table: exit {code}, header {lines[:1]!r}"] * len(cells)
        return verdict
    rows = {}
    for line in lines[1:]:
        f = line.split(",")
        rows[(int(f[0]), int(f[1]), int(f[2]))] = (f[3], f[4], int(f[5]))
    for cell in cells:
        if cell not in rows:
            verdict.failures.append(f"table: cell {cell} missing")
            continue
        reg, ans, nodes = rows[cell]
        n, m, p = cell
        problem = _verdict_problem(cell, ans) or (reg != regime(*cell) and f"regime {reg}")
        # more colors per vertex or a larger forbidden p only loosen the cell
        for looser in ((n, m, p + 1), (n, m + 1, p)):
            if ans == "SAT" and rows.get(looser, ("", ""))[1] == "UNSAT":
                problem = problem or f"SAT but the looser cell {looser} is UNSAT"
        if problem:
            verdict.failures.append(f"table: cell {cell}: {problem}")
        if ans in ("SAT", "UNSAT"):
            verdict.decided += 1
            verdict.counts[cell] = (ans, nodes)
    if len(rows) != len(cells):
        verdict.failures.append(f"table: {len(rows)} rows for {len(cells)} cells")
    return verdict


def _verdict_problem(cell, ans: str) -> str | None:
    reg = regime(*cell)
    if ans not in SEARCH_CODES:
        return f"verdict {ans!r}"
    if reg == "guaranteed" and ans == "SAT":
        return "SAT in the guaranteed regime"
    if reg == "avoidable" and ans == "UNSAT":
        return "UNSAT in the avoidable regime"
    return None


def _check_search(op, code, out, stdin, verdict) -> str | None:
    n, m, p = op.truth["cell"]
    obj = json.loads(out)
    ans = obj["verdict"]
    problem = _verdict_problem((n, m, p), ans)
    if problem:
        return problem
    if code != SEARCH_CODES[ans]:
        return f"exit code does not match verdict {ans}"
    stats = obj["stats"]
    if not isinstance(stats["nodes"], int) or stats["nodes"] < 1:
        return f"bad node count {stats['nodes']!r}"
    if ans == "INCONCLUSIVE":
        return None
    verdict.decided = 1
    verdict.counts[(n, m, p)] = (ans, stats["nodes"], tuple(sorted(stats["prunes"].items())))
    if ans == "UNSAT":
        return None if obj["witness"] is None else "UNSAT with a witness"
    return _certificate_problem(obj["witness"], n, m, p)


def _certificate_problem(wit: dict, n: int, m: int, p: int) -> str | None:
    if wit["n_rows"] != n or wit["n_cols"] != n:
        return "certificate has the wrong size"
    rects = wit["rectangles"]
    row_use, col_use = [0] * n, [0] * n
    for r in rects:
        if min(len(r["rows"]), len(r["cols"])) > p - 1:
            return f"rectangle {r['color']} has a thin side above p-1"
        for i in r["rows"]:
            row_use[i] += 1
        for j in r["cols"]:
            col_use[j] += 1
    if max(row_use + col_use) > m:
        return "certificate is not m-local"
    cover = RectangleCover(n, n, tuple(
        Rectangle(r["color"], frozenset(r["rows"]), frozenset(r["cols"])) for r in rects
    ))
    if check_coverage(cover) is not None:
        return "certificate leaves a cell uncovered"
    if find_mono_biclique_brute(cover, p) is not None:
        return "brute detector finds a monochromatic K_{p,p} in the certificate"
    return None


# ---------------------------------------------------------------------------
# cli_pipe: independent parsing


def _parse(text: str):
    """Return ("matrix", cells), ("cover", n, rects), ("kpartite", obj) or ("family", obj)."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if "rectangles" in obj:
            rects = [(r["color"], set(r["rows"]), set(r["cols"])) for r in obj["rectangles"]]
            return "cover", obj["n_rows"], rects
        return ("kpartite", obj) if "pairs" in obj else ("family", obj)
    lines = text.split("\n")
    n_rows, n_cols = map(int, lines[0].split())
    cells = [list(map(int, line.split())) for line in lines[1:n_rows + 1]]
    if any(len(row) != n_cols for row in cells):
        raise ValueError("ragged matrix")
    return "matrix", cells


def _color_spans(cells) -> dict[int, tuple[set, set]]:
    spans: dict[int, tuple[set, set]] = {}
    for r, row in enumerate(cells):
        for c, color in enumerate(row):
            rows, cols = spans.setdefault(color, (set(), set()))
            rows.add(r)
            cols.add(c)
    return spans


def _check_generate_recursive(op, code, out, stdin, verdict) -> str | None:
    k, side, width = op.truth["k"], 1 << op.truth["k"], 3 << (op.truth["k"] - 2)
    parsed = _parse(out)
    if parsed[0] == "matrix":
        cells = parsed[1]
        if len(cells) != side or len(cells[0]) != side:
            return "wrong size"
        spans = _color_spans(cells)
        if any(cells[r][c] != color for color, (rows, cols) in spans.items()
               for r in rows for c in cols):
            return "not shuffle-preserved"
        rects = [(color, rows, cols) for color, (rows, cols) in spans.items()]
    else:
        _, size, rects = parsed
        if size != side or sum(len(r) * len(c) for _, r, c in rects) != side * side:
            return "wrong size or overlapping rectangles"
    if any(min(len(r), len(c)) != 1 for _, r, c in rects):
        return "a color class has both sides >= 2, so it holds a K_{2,2}"
    use = [0] * (2 * side)
    for _, rows, cols in rects:
        for i in rows:
            use[i] += 1
        for j in cols:
            use[side + j] += 1
    if max(use) != width:
        return f"local width {max(use)}, expected {width}"
    return None


def _check_generate_modm(op, code, out, stdin, verdict) -> str | None:
    n, m = op.truth["n"], op.truth["m"]
    parsed = _parse(out)
    if parsed[0] == "matrix":
        expected = [[i % m] * n for i in range(n)]
        return None if parsed[1] == expected else "cells differ from i mod m"
    expected = [(r, set(range(r, n, m)), set(range(n))) for r in range(min(m, n))]
    return None if parsed[1:] == (n, expected) else "rectangles differ from the mod-m stripes"


def _check_generate_kpartite(op, code, out, stdin, verdict) -> str | None:
    n, m, k = op.truth["n"], op.truth["m"], op.truth["k"]
    obj = _parse(out)[1]
    if (obj["k"], obj["n"]) != (k, n):
        return "wrong k or n"
    seen = {tuple(pair["parts"]) for pair in obj["pairs"]}
    if seen != {(a, b) for a in range(k) for b in range(a + 1, k)}:
        return "missing part pairs"
    part0 = [set() for _ in range(m)]
    for pair in obj["pairs"]:
        covered = set()
        for r in pair["rectangles"]:
            if not 0 <= r["color"] < m:
                return f"color {r['color']} outside 0..{m - 1}"
            covered.update((u, v) for u in r["rows"] for v in r["cols"])
            if pair["parts"][0] == 0:
                part0[r["color"]].update(r["rows"])
        if len(covered) != n * n:
            return f"pair {pair['parts']} is not fully covered"
    if max(len(s) for s in part0) > -(-n // m):
        return "a color touches more than ceil(n/m) vertices of part 0"
    return None


def _check_valid(op, code, out, stdin, verdict) -> str | None:
    return None if (code, out) == (0, "ok\n") else f"expected ok, got {out[:80]!r}"


def _check_violation(op, code, out, stdin, verdict) -> str | None:
    if code != 2:
        return "expected the violation exit code 2"
    v = json.loads(out)
    if v["kind"] != op.truth["expect"]:
        return f"violation kind {v['kind']}, planted {op.truth['expect']}"
    parsed = _parse(stdin)
    if v["kind"] == "shuffle":
        cells, color = parsed[1], v["color"]
        u, up, w, wp = v["u"], v["u_prime"], v["v"], v["v_prime"]
        holds = cells[u][w] == color and cells[up][wp] == color
        broken = cells[u][wp] != color or cells[up][w] != color
        return None if holds and broken else "reported swap violation does not hold"
    if v["kind"] == "coverage":
        rects = parsed[2]
        hit = any(v["row"] in r and v["col"] in c for _, r, c in rects)
        return "reported cell is covered" if hit else None
    if v["kind"] == "locality":
        side = 1 if v["side"] == "row" else 2
        count = sum(v["index"] in rect[side] for rect in parsed[2])
        ok = count == v["count"] > v["limit"]
        return None if ok else "reported locality count is wrong"
    color, a, u, b, w = v["color"], v["part_u"], v["u"], v["part_v"], v["v"]
    touched, edge = set(), False
    for pair in parsed[1]["pairs"]:
        pa, pb = pair["parts"]
        for r in pair["rectangles"]:
            if r["color"] == color:
                touched.update((pa, i) for i in r["rows"])
                touched.update((pb, j) for j in r["cols"])
                edge = edge or ((pa, pb) == (a, b) and u in r["rows"] and w in r["cols"])
    holds = (a, u) in touched and (b, w) in touched and not edge
    return None if holds else "reported k-partite violation does not hold"


def _check_detect(op, code, out, stdin, verdict) -> str | None:
    if code != 0:
        return "expected exit 0"
    p = int(op.argv[op.argv.index("--p") + 1])
    brute_mode = "brute" in op.argv
    parsed = _parse(stdin)
    found = None if out == "none\n" else json.loads(out)
    if found is not None:
        problem = _witness_problem(parsed, found, p)
        if problem:
            return problem
    if (found is not None) != op.truth["exists"]:
        return f"answer {'witness' if found else 'none'} contradicts the construction"
    if not brute_mode:
        oracle = _brute(parsed, p)
        if oracle is not None and (found is not None) != oracle:
            return "fast detector disagrees with the brute-force detector"
    return None


def _witness_problem(parsed, wit: dict, p: int) -> str | None:
    color = wit["color"]
    if parsed[0] == "kpartite":
        obj, parts = parsed[1], wit["parts"]
        if len(parts) != obj["k"] or any(len(part) < p for part in parts):
            return "k-partite witness has the wrong shape"
        for pair in obj["pairs"]:
            a, b = pair["parts"]
            cells = {(u, v) for r in pair["rectangles"] if r["color"] == color
                     for u in r["rows"] for v in r["cols"]}
            if any((u, v) not in cells for u in parts[a] for v in parts[b]):
                return f"k-partite witness misses an edge between parts {a} and {b}"
        return None
    rows, cols = wit["rows"], wit["cols"]
    if len(rows) < p or len(cols) < p:
        return "witness is smaller than p x p"
    if parsed[0] == "matrix":
        ok = all(parsed[1][r][c] == color for r in rows for c in cols)
    else:
        ok = any(col == color and set(rows) <= r and set(cols) <= c for col, r, c in parsed[2])
    return None if ok else "witness is not monochromatic"


def _brute(parsed, p: int) -> bool | None:
    """Existence by the library's brute-force detectors, or None past their guards."""
    if parsed[0] == "kpartite":
        obj = parsed[1]
        if comb(obj["n"], p) ** obj["k"] > 10**6:
            return None
        cover = KPartiteCover(obj["k"], obj["n"], tuple(
            (pair["parts"][0], pair["parts"][1], tuple(
                Rectangle(r["color"], frozenset(r["rows"]), frozenset(r["cols"]))
                for r in pair["rectangles"]))
            for pair in obj["pairs"]
        ))
        return find_mono_kpartite_brute(cover, p) is not None
    if parsed[0] == "matrix":
        cells = parsed[1]
        triples = [(r, c, color) for r, row in enumerate(cells) for c, color in enumerate(row)]
        side = max(len(cells), len(cells[0]))
    else:
        triples = [(r, c, color) for color, rows, cols in parsed[2] for r in rows for c in cols]
        side = parsed[1]
    if side > 24 or p > 6:
        return None
    return find_mono_biclique_brute(triples, p) is not None


def _check_superimposed(op, code, out, stdin, verdict) -> str | None:
    if code != 0:
        return "expected exit 0"
    t = int(op.argv[op.argv.index("--t") + 1])
    family = json.loads(stdin)
    cliques = {c["color"]: set(c["vertices"]) for c in family["cliques"]}
    res = json.loads(out)
    best = max(len(set.intersection(*(cliques[c] for c in sub)))
               for sub in combinations(sorted(cliques), t))
    degree = {}
    for verts in cliques.values():
        for v in verts:
            degree[v] = degree.get(v, 0) + 1
    bound = -(-sum(comb(d, t) for d in degree.values()) // comb(len(cliques), t))
    wit = res["witness"]
    common = set.intersection(*(cliques[c] for c in wit["colors"])) if wit["colors"] else set()
    if res["s_t"] != best or res["bound"] != bound or bound > best:
        return f"s_t {res['s_t']} / bound {res['bound']}, expected {best} / {bound}"
    if len(wit["colors"]) != t or set(wit["vertices"]) != common or len(common) != best:
        return "superimposed witness does not match its colors"
    return None


_CHECKS = {
    "search": _check_search,
    "recursive": _check_generate_recursive,
    "modm": _check_generate_modm,
    "kpartite": _check_generate_kpartite,
    "valid": _check_valid,
    "violation": _check_violation,
    "detect": _check_detect,
    "superimposed": _check_superimposed,
}
