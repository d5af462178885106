"""One repetition of a benchmark workload, in the fresh interpreter run.py starts for it.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

needs steengraph on the import path (run.py puts src/ there).  It runs the
workload once with one worker, checks every output with gate.py, and prints
one JSON line: each operation's time (an analysis query or a
sweep verdict), measured and scaled to the reference speed of speed.py, and
its case count; peak RSS; the failed operations; and the per-layer metrics
when TRACE is 1.
"""

import contextlib
import importlib
import io
import json
import random
import resource
import statistics
import sys

import gate
from speed import Timeline
from steengraph import algebra, cli, verify  # importing is set-up, timed separately as setup_s

# verify checks and the levels each workload sweeps, in run order
SWEEPS = {
    "graph-sweep": [(check, n) for check in ("main", "tree", "dipath") for n in range(5)]
    + [(check, n) for check in ("dirac", "paper-hamilton") for n in range(4)],
    "hopf-sweep": [("antipode-paths", n) for n in range(5)]
    + [(check, n) for check in ("corollary-unilateral", "hopf-axioms") for n in range(4)],
}

ANALYZE_LEVELS = range(4, 13)
QUERIES_PER_LEVEL = 134  # 1206 queries a repetition, so 12 samples lie beyond its p99


def analyze_queries(seed: int) -> list:
    """(n, monomial text, canonical name) for random monomials, the same count at every level.

    Each exponent is uniform within its bound, so each edge of the
    graph on n+2 vertices is present with probability 1/2.
    """
    rng = random.Random(seed)
    queries = []
    for n in ANALYZE_LEVELS:
        for _ in range(QUERIES_PER_LEVEL):
            exps = [rng.randrange(1 << (n + 2 - i)) for i in range(1, n + 2)]
            factors = [(i, r) for i, r in enumerate(exps, start=1) if r]
            text = " ".join(f"xi{i}^{r}" for i, r in factors) or "1"
            name = "*".join(f"xi{i}^{r}" for i, r in factors) or "1"
            queries.append((n, text, name))
    rng.shuffle(queries)
    return queries


# (module, name) of steengraph functions called at least once a case, and
# within the long cases of hopf-axioms: points where a probe may run
MARKS = [
    ("verify", name)
    for name in (
        "monomial_from_index",
        "counit_laws_hold",
        "antipode",
        "verify_antipode_recursion",
        "verify_hopf_ideal",
    )
] + [("hopf", name) for name in ("coproduct", "coproduct_generator", "antipode")]


@contextlib.contextmanager
def marks(timeline: Timeline):
    """Call timeline.mark() whenever steengraph calls a MARKS function by that name.

    A name its module no longer has is skipped; its work is then probed
    less often.
    """
    modules = [(importlib.import_module(f"steengraph.{m}"), name) for m, name in MARKS]
    originals = [(m, name, getattr(m, name)) for m, name in modules if hasattr(m, name)]
    for module, name, inner in originals:

        def marked(*args, _inner=inner, **kwargs):
            timeline.mark()
            return _inner(*args, **kwargs)

        setattr(module, name, marked)
    try:
        yield
    finally:
        for module, name, inner in originals:
            setattr(module, name, inner)


def timed(timeline: Timeline, cases: int, weights: list, misses: list) -> dict:
    timeline.finish()
    return {
        "cases": cases,
        "scaled": timeline.scaled,
        "raw": timeline.raw,
        "probes": len(timeline.probes),
        "probe_s": statistics.median(timeline.probes),
        "weights": weights,
        "misses": misses,
    }


def run_sweeps(plan: list, traced: bool = False) -> dict:
    """One `verify -n N --theorem X --json` call per verdict.

    A traced repetition probes only between verdicts, so that no probe time
    lands in the self time of the verify layers.
    """
    outputs = []
    timeline = Timeline()
    with contextlib.nullcontext() if traced else marks(timeline):
        for check, n in plan:
            buf = io.StringIO()
            timeline.start()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["verify", "-n", str(n), "--theorem", check, "--json"])
            except Exception as exc:  # a raising verdict is a failed operation, not a dead run
                code = f"raised {exc!r}"
            timeline.stop()
            outputs.append((check, n, code, buf.getvalue()))
    cases = [gate.expected_cases(check, n) for check, n in plan]
    misses = [gate.sweep_misses(check, n, code, out) for check, n, code, out in outputs]
    return timed(timeline, sum(cases), cases, misses)


def run_queries(queries: list) -> dict:
    """Closed loop, one client: parse, report and render each monomial in turn."""
    misses = []
    timeline = Timeline()
    for n, text, name in queries:
        timeline.start()
        try:
            report = cli.build_report(algebra.parse_monomial(text, algebra.Level(n)))
            cli.render_analysis_text(report)
        except Exception as exc:  # a raising query is a failed operation, not a dead run
            report = {"monomial": f"raised {exc!r}"}
        timeline.stop()
        misses.append(gate.report_misses(report, name))
    return timed(timeline, len(queries), [1] * len(queries), misses)


def count_failures(result: dict) -> dict:
    """Replace the per-operation misses by attempted and failed counts and the first misses."""
    misses = result.pop("misses")
    result["attempted"] = len(misses)
    result["failed"] = sum(1 for m in misses if m)
    result["misses"] = [m for ms in misses for m in ms][:10]
    return result


def main(argv: list) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    if workload not in SWEEPS and workload != "analyze-point":
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    queries = analyze_queries(seed) if workload == "analyze-point" else None
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if queries:
        result = count_failures(run_queries(queries))
    else:
        result = count_failures(run_sweeps(SWEEPS[workload], traced=trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["layers"] = tracer.metrics() if tracer else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
