"""Benchmark for shufflecover: drives ``shufflecover.cli.run`` in-process.

    python3 bench/run.py --workload {table_n5,hot_cells,cli_pipe,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a list of CLI invocations
built from the seed (see corpus.py).  The timed phase repeats whole passes
over that list, closed-loop and one invocation at a time, until the next
pass would end after ``--seconds`` (at least one pass).  Every output is
checked by oracle.py between passes, outside the timed region.

Times are reported in reference seconds (see :class:`RefClock`); the report
also prints them in raw seconds.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table_n5", "hot_cells", "cli_pipe")
SETUP_PROBES = 11
EX_INCONCLUSIVE = 4
# RefClock: one slice of REF_LOOPS reference iterations every REF_PERIOD_S;
# REF_S is that slice's time at the reference speed, about the faster of the
# two speed states of the 2-core box the benchmark was tuned on.
REF_LOOPS = 1500
REF_PERIOD_S = 0.05
REF_S = 0.0005
RAW, REF = 0, 1  # indexes into the (raw, reference) pairs RefClock.now returns


def _reference_work() -> None:
    """A fixed slice of interpreter work: tuples, a set, ints and strings."""
    seen, total = set(), 0
    for i in range(REF_LOOPS):
        key = (i & 63, i % 7)
        if key in seen:
            total += i
        else:
            seen.add(key)
        total += len(str(i))


class RefClock:
    """Elapsed time rescaled to a fixed reference speed of the machine.

    The host this benchmark was tuned on switches between speed states
    about 1.5x apart, each lasting seconds to minutes, so raw wall times of
    identical runs spread by 15-20% even over 60 s windows.  This clock
    takes a SIGALRM every REF_PERIOD_S, times a fixed slice of interpreter
    work, and advances by elapsed time x (REF_S / that slice's time): the
    seconds the same work would take at the reference speed.  Time spent in
    the handler is left out of both clocks.
    """

    def __init__(self):
        self.ticks = 0
        self.speeds: list[float] = []
        self._raw0 = self._last = perf_counter()
        self._norm = self._paused = 0.0
        self._speed = 1.0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        _reference_work()
        end = perf_counter()
        speed = REF_S / (end - start)
        self._norm += (start - self._last) * (self._speed + speed) / 2
        self._paused += end - start
        self._last, self._speed = end, speed
        self.speeds.append(speed)
        self.ticks += 1
        self._busy = False

    def now(self) -> tuple[float, float]:
        """(raw seconds, reference seconds) since the clock started."""
        while True:
            ticks = self.ticks
            t = perf_counter()
            pair = (t - self._raw0 - self._paused, self._norm + (t - self._last) * self._speed)
            if ticks == self.ticks:
                return pair


class _Stamped(io.StringIO):
    """stdout that records when each line ends, so the rows that ``table``
    streams can be timed one cell at a time."""

    def __init__(self, clock: RefClock):
        super().__init__()
        self.clock = clock
        self.stamps: list[tuple[float, float]] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        if s.endswith("\n"):
            self.stamps.append(self.clock.now())
        return n


class Result(NamedTuple):
    code: int
    out: str
    err: str
    start: tuple[float, float]
    end: tuple[float, float]
    stamps: list


def invoke(argv: list[str], stdin: str, clock: RefClock) -> Result:
    """One in-process CLI call with stdin, stdout and stderr redirected."""
    from shufflecover import cli

    out, err = _Stamped(clock), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    start = clock.now()
    try:
        code = cli.run(argv)
    finally:
        end = clock.now()
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(code, out.getvalue(), err.getvalue(), start, end, out.stamps)


def _budget_hit(op, res: Result) -> float | None:
    """The budget of a search that hit it, else None."""
    if op.truth.get("kind") == "search" and res.code == EX_INCONCLUSIVE:
        return float(op.argv[op.argv.index("--timeout-sec") + 1])
    return None


def run_pass(ops, clock: RefClock, tracer=None) -> tuple[list[float], list[Result]]:
    """One pass over ``ops``; returns its [raw, reference] wall time, in
    which a search that hits its budget counts at the budget."""
    results: list[Result] = []
    gc.collect()
    start = clock.now()
    for i, op in enumerate(ops):
        stdin = results[op.pipe_from].out if op.pipe_from is not None else op.stdin
        if tracer is not None:
            tracer.op = i
        results.append(invoke(op.argv, stdin, clock))
    end = clock.now()
    wall = [end[k] - start[k] for k in (RAW, REF)]
    for op, res in zip(ops, results):
        budget = _budget_hit(op, res)
        if budget is not None:
            for k in (RAW, REF):
                wall[k] += budget - (res.end[k] - res.start[k])
    return wall, results


def op_times(op, res: Result, k: int) -> list[float]:
    """Per-operation times: one per search cell (a budget hit counts at the
    budget), else one per invocation."""
    if op.truth["kind"] == "table":
        return [b[k] - a[k] for a, b in zip(res.stamps, res.stamps[1:])]
    budget = _budget_hit(op, res)
    return [budget if budget is not None else res.end[k] - res.start[k]]


class Checker:
    """Runs the oracle on each pass.  A pass whose normalized outputs equal
    the first pass's reuses that verdict; any other output is checked in
    full, and any change in a decided cell's counts is a failure."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list | None = None
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.decided: list[int] = []
        self.counts: dict = {}
        self.mismatches = 0

    def check(self, results: list[Result]) -> None:
        from oracle import check, normalize

        verdicts = []
        for i, (op, res) in enumerate(zip(self.ops, results)):
            key = (res.code, normalize(op, res.out))
            if self.first is not None and self.first[i][0] == key:
                verdict = self.first[i][1]
            else:
                stdin = results[op.pipe_from].out if op.pipe_from is not None else op.stdin
                verdict = check(op, res.code, res.out, stdin)
                if res.err and verdict.failures:
                    verdict.failures.append(f"{op.label}: stderr {res.err.strip()[:200]!r}")
            verdicts.append((key, verdict))
            failures = list(verdict.failures)
            for cell, value in verdict.counts.items():
                if self.counts.setdefault(cell, value) != value:
                    self.mismatches += 1
                    failures.append(f"{op.label}: counts of {cell} changed: "
                                    f"{self.counts[cell]} then {value}")
            self.attempted += verdict.attempted
            self.failed += min(len(failures), verdict.attempted)
            self.failures.extend(failures)
        if self.first is None:
            self.first = verdicts
        self.decided.append(sum(v.decided for _, v in verdicts))

    def digest(self) -> str:
        text = json.dumps(sorted((str(k), v) for k, v in self.counts.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup_seconds(workload: str, seed: int, clock: RefClock) -> list[float]:
    """Median [raw, reference] time from starting a fresh interpreter until
    it has imported shufflecover and built the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = clock.now()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            end = clock.now()
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        times.append((end[RAW] - start[RAW], end[REF] - start[REF]))
    return [statistics.median(t[k] for t in times) for k in (RAW, REF)]


def tail(samples: list[float]):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None below 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import corpus
    from tracing import Tracer, layer_metrics, median_metrics

    with RefClock() as clock:
        setup = setup_seconds(workload, seed, clock)
        ops = corpus.build(workload, seed)
        run_pass(corpus.warmup(workload, seed), clock)
        checker = Checker(ops)
        tracer = Tracer(lambda: clock.now()[REF]) if trace else None
        walls: dict[bool, list] = {False: [], True: []}
        samples: list[list[float]] = [[], []]
        per_pass_layers = []
        elapsed = 0.0
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            first_span = len(tracer.spans) if traced else 0
            if traced:
                tracer.install()
            try:
                wall, results = run_pass(ops, clock, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            elapsed += wall[RAW]
            walls[traced].append(wall)
            if traced:
                per_pass_layers.append(layer_metrics(tracer.spans, first_span))
            else:
                for k in (RAW, REF):
                    samples[k].extend(t for op, r in zip(ops, results) for t in op_times(op, r, k))
            checker.check(results)
            del results
            if (walls[True] or not trace) and elapsed + wall[RAW] > seconds:
                break

    def wall_median(traced: bool, k: int) -> float:
        return statistics.median(w[k] for w in walls[traced])

    report = {
        "workload": workload, "seed": seed, "passes": len(walls[False]) + len(walls[True]),
        "ops_per_pass": len(ops), "checker": checker, "speed": statistics.median(clock.speeds),
    }
    if trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.json"))
        layers = median_metrics(per_pass_layers)
        layers.update({
            "trace.untraced_wall_s": wall_median(False, REF),
            "trace.traced_wall_s": wall_median(True, REF),
            "trace.overhead_s": wall_median(True, REF) - wall_median(False, REF),
            "trace.spans": len(tracer.spans) / len(walls[True]),
            "repeat.mismatches": checker.mismatches,
        })
        report["metrics"] = layers
        return report
    report["metrics"] = {
        "wall_s": wall_median(False, REF),
        "decided": statistics.median(checker.decided),
        "setup_s": setup[REF],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["raw"] = {"wall_s": wall_median(False, RAW), "setup_s": setup[RAW]}
    report["samples"] = samples
    return report


UNITS = {"decided": "count", "failed_frac": "ratio", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def print_report(rep: dict) -> None:
    ck = rep["checker"]
    print(f"# {rep['workload']} seed={rep['seed']}: {rep['passes']} passes, "
          f"{rep['ops_per_pass']} invocations per pass, machine at "
          f"{rep['speed']:.3f} of the reference speed; times in reference seconds")
    rows = {name: f"{value:.6g} {unit_of(name)}" for name, value in rep["metrics"].items()}
    for name, value in rep.get("raw", {}).items():
        rows[name] += f"  (raw {value:.6g} s)"
    if "samples" in rep:
        # printed, not gated: see bench/README.md
        ref, raw = rep["samples"]
        rows["op_p50_s"] = (f"{statistics.median(ref):.6g} s of {len(ref)} samples"
                            f"  (raw {statistics.median(raw):.6g} s)")
        top, top_raw = tail(ref), tail(raw)
        rows["op_tail_s"] = (f"{top[0]:.6g} s at p{top[1]:.2f}  (raw {top_raw[0]:.6g} s)"
                             if top else f"n/a: {len(ref)} samples, a tail needs at least 11")
        rows["failed_frac"] = f"{ck.failed / ck.attempted:.6g} ratio"
    for name, shown in rows.items():
        print(f"{name:28s} {shown}")
    print(f"{'repeat':28s} {len(ck.counts)} decided cells, {ck.mismatches} count mismatches, "
          f"digest {ck.digest()}")
    print(f"{'checked':28s} {ck.attempted} attempted, {ck.failed} failed")
    for line in ck.failures[:20]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shufflecover", "cli.py")):
        print(f"shufflecover sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # the node budget must come from the workload, not the environment
    os.environ.pop("RAMSEY_GUARD_NODES", None)

    if args.setup_probe:
        import corpus
        import shufflecover.cli  # noqa: F401  (the entry point every workload drives)

        corpus.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        ]
        return max(codes)

    rep = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(rep)
    ck = rep["checker"]
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in rep["metrics"].items()}
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted,
                      "failed": ck.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
