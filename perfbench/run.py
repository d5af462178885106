"""Benchmark of steengraph: one workload per run, every repetition in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from src/.
Workloads, metrics and bounds are declared in BENCHMARK.json:

  graph-sweep    verify main, tree, dipath at n=0..4 and dirac, paper-hamilton at n=0..3
  hopf-sweep     verify antipode-paths at n=0..4, corollary-unilateral, hopf-axioms at n=0..3
  analyze-point  closed loop, one client: parse, report and render seeded random
                 monomials at n=4..12 (perfbench/worker.py makes them from --seed)

The run repeats the workload, each repetition in a new interpreter, as
long as --seconds have not passed; the last one starts before then.  Before
each repetition it times four interpreter starts with `import
steengraph.cli`; setup_s is the median of these.  A user of `steengraph
verify` pays cold caches and imports on every invocation, and the hopf
caches make a warm rerun of hopf-axioms at n=3 about twice as fast as a
cold one, so no repetition reuses a process.  One process, one worker.

Every time is scaled to a fixed machine speed by the probes of
perfbench/speed.py: on a shared 2-core VM, other load made the same work
take from 1x to 2x as long for minutes at a time.  The
measured times are printed next to the scaled ones.  The query percentiles
of analyze-point are over its queries; those of a sweep are over its cases,
each case taking its verdict's time over the verdict's case count, so they
fall only if some verdict gets faster.

With --trace 0 it reports the end-to-end metrics, medians over the
repetitions.  With --trace 1 each repetition is a pair, one plain and one
traced by perfbench/spans.py, and it reports the per-layer metrics, medians
over the traced repetitions, plus the tracing overhead (traced minus plain
wall_s).  Per-layer times are measured, not scaled.  Every verdict and
report is checked by perfbench/gate.py; a miss counts as a failed
operation.  The last line of stdout is the JSON result.

The tests of the gate: PYTHONPATH=src python3 -m pytest perfbench
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph-sweep", "hopf-sweep", "analyze-point")
SETUP_SAMPLES = 4  # before each repetition, so set-up is sampled across the whole run
HARD_LIMIT_S = 170.0  # a run, set-up included, must end within 180 s


class BenchError(Exception):
    """The program could not be measured: missing, not importable, or a worker died."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STEENGRAPH_MAX_N", None)  # the sweeps run at the default caps
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_facts(args) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(env: dict) -> list:
    """Set-up times, each scaled by the probes run just before and after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.probe()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import steengraph.cli"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        took = time.perf_counter() - start
        samples.append(took * 2 * speed.REFERENCE_S / (before + speed.probe()))
        if proc.returncode != 0:
            raise BenchError(f"import steengraph.cli failed:\n{proc.stderr[-2000:]}")
    return samples


def run_worker(workload: str, seed: int, trace: int, env: dict, hard_deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(trace)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, hard_deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} repetition did not end within the run's time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(samples: list, q: float) -> tuple:
    """Nearest-rank percentile of (value, weight) pairs; returns (value, weight at or above it)."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    below = 0
    for value, weight in ordered:
        if below + weight >= q * total:
            return value, total - below
        below += weight
    raise ValueError("no samples")


def per_case(rep: dict) -> list:
    """(time of a case, cases) for each operation: an operation's cases share its time."""
    return [(t / k, k) for t, k in zip(rep["scaled"], rep["weights"])]


def end_to_end(rep: dict) -> dict:
    wall = sum(rep["scaled"])
    return {
        "wall_s": wall,
        "cases_per_s": rep["cases"] / wall,
        "query_p50_ms": 1e3 * percentile(per_case(rep), 0.50)[0],
        "query_p99_ms": 1e3 * percentile(per_case(rep), 0.99)[0],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def medians(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(args) -> tuple:
    """Set-up samples and repetitions until --seconds; returns (plain, traced, setup)."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    deadline = start + args.seconds
    env = child_env()
    plain, traced, setup = [], [], []
    while True:
        began = time.monotonic()
        setup.extend(measure_setup(env))
        plain.append(run_worker(args.workload, args.seed, 0, env, hard_deadline))
        if args.trace:
            traced.append(run_worker(args.workload, args.seed, 1, env, hard_deadline))
        took = time.monotonic() - began
        if time.monotonic() >= deadline or time.monotonic() + took > hard_deadline:
            return plain, traced, setup


def report(args, plain: list, traced: list, setup: list) -> tuple:
    """Human-readable lines and the metric values of this run."""
    lines = []
    rep = plain[0]
    sweep = args.workload != "analyze-point"
    values = medians([end_to_end(r) for r in plain])
    values["setup_s"] = statistics.median(setup)
    scaled = " ".join(f"{sum(r['scaled']):.3f}" for r in plain)
    raw = " ".join(f"{sum(r['raw']):.3f}" for r in plain)
    probes = " ".join(f"{1e3 * r['probe_s']:.3f}" for r in plain)
    _, at_or_above = percentile(per_case(rep), 0.99)
    if sweep:
        kind = (f"per case: a verdict's time over its cases, weighted by cases;"
                f" {len(rep['weights'])} verdicts a repetition")
    else:
        kind = f"per query; {rep['cases']} queries a repetition"
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts with import steengraph.cli",
        "wall_s": f"median of {scaled} s, {rep['cases']} cases a repetition;"
        f" measured {raw} s, median probe {probes} ms",
        "cases_per_s": "cases" if sweep else "queries, closed loop with one client",
        "query_p50_ms": kind,
        "query_p99_ms": f"{kind}, {at_or_above} of them at or above it",
        "peak_rss_mb": "max RSS of the workload process",
    }
    lines.extend(f"{name:<16} {values[name]:>14.6g}  {note}" for name, note in notes.items())
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    lines.append(f"{'failed_share':<16} {failed / attempted:>14.6g}  {failed} of {attempted} operations")
    for r in plain + traced:
        lines.extend(f"  miss: {m}" for m in r["misses"])
    if traced:
        layers = medians([r["layers"] for r in traced])
        layers["trace.overhead_s"] = (
            statistics.median(sum(r["scaled"]) for r in traced) - values["wall_s"]
        )
        lines.append(f"per-layer self time and calls, median of {len(traced)} traced repetitions:")
        lines.extend(f"  {name:<34} {v:.6g}" for name, v in layers.items())
        values = layers
    return lines, values, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="steengraph benchmark, one workload per run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "steengraph" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from a steengraph checkout (src/steengraph and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    facts = machine_facts(args)
    try:
        plain, traced, setup = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines, values, attempted, failed = report(args, plain, traced, setup)
    print("facts: " + json.dumps(facts))
    print("\n".join(lines))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
