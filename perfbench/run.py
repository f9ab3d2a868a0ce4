#!/usr/bin/env python3
"""Builds and runs the perfbench binary for one workload.

    python3 perfbench/run.py --workload serve-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The binary (perfbench.cpp) is configured and
built with CMake from the repository's own sources into the directory named
by CARGO_TARGET_DIR (default .bench_build). The fixed per-workload settings,
the open-loop arrival rate and the latency limits, live in
perfbench/workloads.json and are never recalibrated at run time.

The last stdout line is the binary's JSON result. Before passing it on, this
script checks that it names exactly the metrics BENCHMARK.json declares for
the mode (end_to_end for --trace 0, per_layer for --trace 1).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    """Configures and builds `target`; build output goes to stderr."""
    cmds = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", target,
         "-j", str(max(1, min(4, os.cpu_count() or 1)))],
    ]
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dr_topk.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")

    if args.selftest:
        exe = build(build_dir, "perfbench_selftest")
        sys.exit(subprocess.run([exe]).returncode)

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(sorted(workloads))}")
    w = workloads[args.workload]

    exe = build(build_dir, "perfbench")
    trace_dir = os.path.join(target_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slo-us", str(w["slo_us"]), "--trace-dir", trace_dir]
    if "rate_qps" in w:
        cmd += ["--rate-qps", str(w["rate_qps"])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no JSON result", 1)
    want = expected_metrics(args.trace)
    got = set(result.get("metrics", {}))
    if want is not None and got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metric set differs from BENCHMARK.json: missing "
             f"{sorted(want - got)}, extra {sorted(got - want)}", 1)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
