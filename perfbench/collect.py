"""Repeat the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1,2,3 | --runs N]
                                 [--seconds S] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per (workload, seed), one at a time, and prints
for every metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. With --out, writes every run's result line, its detail
line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("# detail "):]) for l in lines
                  if l.startswith("# detail "))
    return {"seed": seed, "result": json.loads(lines[-1]),
            "output_digest": detail["output_digest"], "detail": detail}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", help="comma-separated seeds")
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..N when --seeds is absent")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        names = runs[0]["result"]["metrics"]
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['result']['correct'] for r in runs)}, failed: "
              f"{sum(r['result']['failed'] for r in runs)}")
        for name, s in summary.items():
            bound, spread = bounds.get(name), s["spread"]
            flag = "" if bound is None or spread is None else (
                f"bound {bound:<5} {'ok' if spread < bound / 3 else 'WIDE'}")
            shown = "-" if spread is None else f"{spread:.4f}"
            print(f"  {name:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {shown:6s} {flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
