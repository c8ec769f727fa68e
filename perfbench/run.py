#!/usr/bin/env python3
"""End-to-end GPS benchmark: build, generate the seeded input, measure.

Usage (from the repository root):

    python3 perfbench/run.py --workload social-serial --seed 1 \
        --seconds 35 --trace 0

Steps, each a separate process:

1. Build perfbench/ (CMake, Release) into .bench_build/perfbench. The
   build compiles the library from ../src through the root build file.
2. Input step (perfbench_gen): the workload's graph from --seed, permuted
   into a GPS-STREAM file, plus a sidecar with the exact counts. Cached
   per (workload, seed, scale) under .bench_build/inputs; not timed.
3. The measured process (perfbench_driver), which prints one result
   object as its last stdout line; this script re-prints the driver's
   stdout and exits with its status.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
writes the spans to .bench_build/traces/. --smoke runs the same code on
inputs scaled to ~2% (seconds, not minutes) for perfbench/test_smoke.py.
Refuses to run when GPS_INTERSECT_KERNEL is set: a pinned intersection
kernel is a different program.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("social-serial", "social-sharded", "monitor-web")
SMOKE_SCALE = 0.02
# A run must finish within this many seconds once the build exists.
RUN_BUDGET_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    out = BUILD / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_gen", "perfbench_driver"],
    ]
    with open(out / "build.log", "w") as build_log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=build_log,
                                  stderr=subprocess.STDOUT, timeout=840)
            if done.returncode != 0:
                log(f"build failed ({' '.join(cmd)}); see {build_log.name}")
                return None
    return out


def make_input(bin_dir, workload, seed, scale):
    inputs = BUILD / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    prefix = inputs / f"{workload}-{seed}-x{scale:g}"
    if not prefix.with_name(prefix.name + ".exact").exists():
        done = subprocess.run(
            [str(bin_dir / "perfbench_gen"), "--workload", workload,
             "--seed", str(seed), "--scale", f"{scale:g}",
             "--out", str(prefix)],
            stdout=sys.stderr, timeout=120)
        if done.returncode != 0:
            log("input generation failed")
            return None
    return prefix


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if "GPS_INTERSECT_KERNEL" in os.environ:
        log("GPS_INTERSECT_KERNEL is set; a pinned intersection kernel is "
            "a different program, refusing to measure it")
        return 2

    bin_dir = build()
    if bin_dir is None:
        return 1
    started = time.monotonic()
    scale = SMOKE_SCALE if args.smoke else 1.0
    prefix = make_input(bin_dir, args.workload, args.seed, scale)
    if prefix is None:
        return 1
    tag = f"{args.workload}-{args.seed}-x{scale:g}"
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(bin_dir / "perfbench_driver"),
           "--workload", args.workload,
           "--input", str(prefix),
           "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace),
           "--scale", f"{scale:g}",
           "--ckpt-dir", str(BUILD / "ckpt" / f"{tag}-{os.getpid()}")]
    if args.trace:
        cmd += ["--spans-out", str(traces / f"{tag}.spans.jsonl")]
    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        log("driver exceeded the run budget and was stopped")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"driver exited with status {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver printed no result")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
