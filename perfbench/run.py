#!/usr/bin/env python3
"""Benchmark entry point: build the harness from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--allow-non-release]

Run from the root of a source checkout. The harness (perfbench/harness,
a CMake package of its own that compiles ../src) is configured in
Release and built incrementally under $CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr. The harness's stdout is
passed through, so the last line is the result JSON
{"correct", "attempted", "failed", "metrics"}; its metric names and
units are checked against BENCHMARK.json first.

Exit codes: 0 done, 2 usage or a checkout without sources, anything else
a failed build or a failed run (no result line is printed then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_timeout_s(seconds):
    """Kill the harness after this long: a traced run measures two phases
    of seconds / 2, each at least one pass (a table1_qsm pass with its
    verification takes about 35 s), plus set-up and verification."""
    return max(170, 3 * seconds + 80)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the harness; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                             stderr=sys.stderr, check=False)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench_harness")


def check_result(spec, stdout, trace):
    """The last line must be a result naming exactly the metrics that
    BENCHMARK.json lists for this mode, with the same units."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "the harness printed no result line"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
    if got != want:
        return (f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                f"{sorted(want.items())}")
    return None


def main():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--allow-non-release", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no library sources under {root}/src; run from a full checkout")
        return 2

    build_dir = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench"))
    harness = build(root, build_dir)
    if harness is None:
        return 1

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.allow_non_release:
        cmd.append("--allow-non-release")
    timeout = run_timeout_s(args.seconds)
    try:
        res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                             timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {timeout} s and was killed")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if res.returncode != 0:
        log(f"harness exited with {res.returncode}")
        return res.returncode
    problem = check_result(spec, res.stdout, args.trace == 1)
    if problem:
        log(problem)
        return 1
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
