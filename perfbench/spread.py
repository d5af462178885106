"""Run-to-run spread of the benchmark, and the BENCH_<label>.json record of a commit.

    python3 perfbench/spread.py [--trace] [--label NAME] [--against NAME]

For each workload of BENCHMARK.json it makes ten runs of run.py, seeds
1..10, and gives for each end-to-end metric the median and the quartile
spread (q3 - q1) / median, with statistics.quantiles(values, n=4).  Every
spread should stay below a third of its metric's bound.  --trace adds one
traced run per workload.  --label writes every run's facts, metrics and the
summary to perfbench/baseline/BENCH_<label>.json.  --against compares each
median with that of perfbench/baseline/BENCH_<NAME>.json: how much worse
it is, as a share of the recorded median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    facts = next(json.loads(line[len("facts: "):]) for line in lines if line.startswith("facts: "))
    result = json.loads(lines[-1])
    return {"facts": facts, "result": result, "text": lines[:-1]}


def summarize(runs: list, spec: dict) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[metric["name"]] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": metric["bound"],
            "steady": spread < metric["bound"] / 3,
        }
    return summary


def worse_by(median: float, before: float, better: str) -> float:
    """How much worse median is than before, as a share of before; negative when better."""
    change = (median - before) / before
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--label", help="write perfbench/baseline/BENCH_<label>.json")
    ap.add_argument("--against", help="compare the medians with BENCH_<against>.json")
    args = ap.parse_args()
    earlier = None
    if args.against:
        earlier = json.loads((HERE / "baseline" / f"BENCH_{args.against}.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(bench_run(workload, seed, spec["run_seconds"], 0))
            values = {k: round(v["value"], 6) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        summary = summarize(runs, spec)
        for name, s in summary.items():
            line = (f"  {name:<14} median {s['median']:.6g}  spread {s['spread']:.4f}"
                    f"  bound {s['bound']}  {'steady' if s['steady'] else 'NOT STEADY'}")
            if earlier:
                before = earlier["workloads"][workload]["summary"][name]["median"]
                worse = worse_by(s["median"], before, better[name])
                line += f"  worse than {args.against} by {worse:+.4f}"
                s[f"worse_than_{args.against}"] = worse
            print(line, flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            entry["traced"] = bench_run(workload, 1, spec["run_seconds"], 1)
            print("\n".join(entry["traced"]["text"]), flush=True)
        record["workloads"][workload] = entry
    if args.label:
        out = HERE / "baseline" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
