#!/usr/bin/env python3
"""Run the benchmark several times and report how steady it is.

Usage (from the repository root):

    python3 perfbench/steady.py --workload grid-cold [--runs 10] [--seed0 1]
                                [--trace 0] [--out FILE]

Each run uses another seed (seed0, seed0+1, ...). The result lines are
appended to FILE (default perfbench/.out/<workload>-trace<t>.jsonl) and,
for every metric, the median and the interquartile distance as a share
of the median are printed next to the metric's bound in BENCHMARK.json.
Two such files can be compared with `paratick-perfbench compare`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = args.out or os.path.join(
        "perfbench", ".out", f"{args.workload}-trace{args.trace}.jsonl"
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)

    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"run with seed {seed} exited with {proc.returncode}")
        line = proc.stdout.strip().splitlines()[-1]
        res = json.loads(line)
        results.append(res)
        with open(out, "a") as f:
            f.write(line + "\n")
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
              file=sys.stderr)

    names = list(results[0]["metrics"])
    print(f"{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print(f"{name:<36} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '':>6}")
    ok = all(r["correct"] for r in results)
    print(f"all correct: {ok}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
