#!/usr/bin/env python3
"""Steadiness report: run workloads k times each, alternating, and print
every metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workloads distance-uniform,sweep-mixed --runs 5 --seed0 100

Runs go through perfbench/run.py with the run length from BENCHMARK.json
and seeds seed0, seed0+1, ...; each workload sees the same seeds. The
spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). An end-to-end metric is steady when its
spread is below a third of its bound (setup_s is exempt). Results are
also appended, one JSON object per run, to --out when given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--trace", type=int, default=0, help="1 reports the per-layer metrics")
    ap.add_argument("--out", help="file to append each run's JSON result to")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed0 + i
            res = run_once(w, seed, spec["run_seconds"], args.trace)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: wrong answers")
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)

    unsteady = 0
    for w in workloads:
        print(f"\n{w}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':32} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, vs in sorted(values[w].items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            verdict, limit = "", ""
            if name in bounds:
                limit = f"{bounds[name] / 3:8.4f}"
                if name != "setup_s" and not spread < bounds[name] / 3:
                    verdict = "  UNSTEADY"
                    unsteady += 1
            print(f"  {name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {limit:>8}{verdict}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
