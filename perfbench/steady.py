#!/usr/bin/env python3
"""Steadiness check: run one workload K times and report the spread.

    python3 perfbench/steady.py --workload NAME [--runs 5] [--first-seed 1]
                                [--seconds S]

Each run calls perfbench/run.py untraced, with seed first-seed + i. For every end-to-end metric it
prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
and flags a spread above one tenth. --seconds defaults to the
run_seconds of BENCHMARK.json. Exit code 1 when any run failed or
reported a wrong result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FLAG_ABOVE = 0.10


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=False)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            seconds = json.load(f)["run_seconds"]

    values, units, ok = {}, {}, True
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds)
        if result is None or not result["correct"] or result["failed"]:
            print(f"run {i} (seed {seed}) failed: {result}")
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<16}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>10}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med, q1, q3, rel = spread(vals)
        flag = "  <-- above 0.10" if rel > FLAG_ABOVE else ""
        print(f"{name:<16}{units[name]:<8}{med:>14.6g}{q1:>14.6g}"
              f"{q3:>14.6g}{rel:>10.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
