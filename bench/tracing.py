"""Spans around the calls the CLI makes into each package module.

The benchmark installs :class:`Tracer` wrappers on the public functions the
CLI calls: ``shufflecover.cli.run`` itself, every function that
``shufflecover.cli`` imports from another package module, the ``formats``
functions it calls through the module, and
``shufflecover.search.search_avoiding``, which ``threshold_table`` looks up
at call time.  Nothing inside the program changes.

A span is ``[name, start, end, parent, op, failed, info]``, timed by the
clock the tracer is given.  Spans stay in memory and are written out once,
at the end of the run.  A layer's busy time is its self time: span duration
minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import re
import statistics

LAYERS = ("cli", "formats", "core", "constructions", "detect", "search")
PRUNES = ("dead_line", "memo", "no_candidates")

# Named sub-metrics: function-name patterns per layer.  A span counts toward
# the first pattern its function name matches.
_KINDS = {
    "formats": (("parse_s", r"^(load|parse)|from_obj$"), ("emit_s", r"^write|to_obj$")),
    "core": (("convert_s", r"_to_"), ("profile_s", r"profile"),
             ("validate_s", r"^(validate|check)|violation$")),
    "detect": (("kpartite_brute_s", r"kpartite_brute"), ("kpartite_s", r"kpartite"),
               ("fast_s", r"biclique_fast"), ("brute_s", r"biclique_brute"),
               ("superimposed_s", r"superimposed")),
    "constructions": (("generate_s", r"."),),
}


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _kind(layer: str, name: str) -> str | None:
    for metric, pattern in _KINDS.get(layer, ()):
        if re.search(pattern, name):
            return f"{layer}.{metric}"
    return None


class Tracer:
    def __init__(self, now):
        self.now = now
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import shufflecover.cli as cli
        import shufflecover.formats as formats
        import shufflecover.search as search

        targets = [(cli, "run", cli.run), (search, "search_avoiding", search.search_avoiding)]
        for name, value in vars(cli).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__.startswith("shufflecover.")
                    and value.__module__ != cli.__name__):
                targets.append((cli, name, value))
        for name in sorted(set(re.findall(r"\bformats\.([a-z]\w*)\(", inspect.getsource(cli)))):
            if inspect.isfunction(getattr(formats, name, None)):
                targets.append((formats, name, getattr(formats, name)))
        for owner, name, fn in targets:
            self._patched.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def _wrap(self, fn):
        span_name = f"{_layer(fn)}.{fn.__name__}"
        generator = inspect.isgeneratorfunction(fn)
        tracer = self

        def traced(*args, **kwargs):
            if generator:
                return tracer._iterate(span_name, fn(*args, **kwargs))
            span = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                tracer._close(span)
            span[6] = _info(fn.__name__, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, span_name, gen):
        """One span per step of a generator, so the caller's work between
        steps is not charged to it."""
        while True:
            span = self._open(span_name)
            try:
                item = next(gen)
            except StopIteration:
                return
            except BaseException:
                span[5] = True
                raise
            finally:
                self._close(span)
            yield item

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, self.now(), 0.0, parent, self.op, False, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = self.now()
        self.stack.pop()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "failed", "info")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _info(name: str, args, result):
    if name == "search_avoiding":
        stats = result.stats
        return {"verdict": result.verdict, "nodes": stats.nodes, "prunes": dict(stats.prunes)}
    if args and isinstance(args[0], str) and re.match(r"^(load|parse)", name):
        return {"bytes": len(args[0].encode())}
    return None


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one pass)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0.0, f"{layer}.failed": 0})
    for layer, kinds in _KINDS.items():
        for metric, _ in kinds:
            out[f"{layer}.{metric}"] = 0.0
    child = {}
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
    parsed_bytes = 0
    nodes, search_s = 0, 0.0
    prunes = dict.fromkeys(PRUNES + ("abort_timeout",), 0)
    decided_nodes = 0
    for i in range(first, len(spans)):
        name, start, end, _, _, failed, info = spans[i]
        layer, func = name.split(".", 1)
        dur = end - start
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_s"] += dur - child.get(i, 0.0)
        out[f"{layer}.failed"] += int(failed)
        kind = _kind(layer, func)
        if kind:
            out[kind] += dur
        if info and "bytes" in info:
            parsed_bytes += info["bytes"]
        if info and "nodes" in info:
            nodes += info["nodes"]
            search_s += dur
            for key in prunes:
                prunes[key] += info["prunes"].get(key, 0)
            if info["verdict"] in ("SAT", "UNSAT"):
                decided_nodes += info["nodes"]
    parse_s = out["formats.parse_s"]
    out["formats.parse_mb_per_s"] = parsed_bytes / 1e6 / parse_s if parse_s else 0.0
    out["search.nodes"] = nodes
    out["search.decided_nodes"] = decided_nodes
    out["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
    for key in PRUNES:
        out[f"search.prune.{key}"] = prunes[key]
    out["search.abort.timeout"] = prunes["abort_timeout"]
    out["search.dead_line_frac"] = prunes["dead_line"] / nodes if nodes else 0.0
    # memo lookups happen on every node that survives the dead_line check
    lookups = nodes - prunes["dead_line"]
    out["search.memo_hit_frac"] = prunes["memo"] / lookups if lookups else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
