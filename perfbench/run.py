#!/usr/bin/env python3
"""Builds the olapidx benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload advise --seed 1 --seconds 20 --trace 0

The library is compiled from the checkout's sources into .bench_build/ (an
incremental no-op after the first run). The driver binary prints a short
report; this script passes it through and ends its standard output with one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A per-layer metric of a layer the workload
does not exercise reads 0. The line before the result, "reported ...",
names the metrics the driver itself measured; a measured name that
BENCHMARK.json does not declare makes the run incorrect. A traced run also
writes its spans to .bench_build/traces/<workload>-seed<seed>.json.

Exit status is 0 only when the build succeeded and every output check
passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("advise", "serve-hot", "serve-cold")
# Pool size per workload. serve-hot's batches gain little from a second
# thread, and a single thread keeps its timings steady on a shared host.
DEFAULT_THREADS = {"advise": 2, "serve-hot": 1, "serve-cold": 2}
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_build_step(cmd):
    # Build output goes to stderr: stdout carries only the report and the
    # result line.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("library sources not found (%s); run from a full checkout"
                 % required)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    run_build_step(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD, "perfbench")


def metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int,
                        help="size of every thread pool (default 1 for "
                        "serve-hot, 2 otherwise)")
    args = parser.parse_args()
    if args.threads is None:
        args.threads = DEFAULT_THREADS[args.workload]
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    end_to_end, per_layer = metric_lists()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, OLAPIDX_THREADS=str(args.threads))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("driver printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("driver's last line is not JSON (exit %d): %s"
             % (proc.returncode, lines[-1]))

    correct = bool(raw["correct"]) and proc.returncode == 0
    wanted, measured = ((end_to_end, raw["end_to_end"]) if args.trace == 0
                        else (per_layer, raw["per_layer"]))
    metrics = {}
    undeclared = sorted(set(measured) - {spec["name"] for spec in wanted})
    if undeclared:
        print("perfbench: measured metrics not in BENCHMARK.json: %s"
              % ", ".join(undeclared), file=sys.stderr)
        correct = False
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None and args.trace == 0:
            print("perfbench: end-to-end metric %s missing" % spec["name"],
                  file=sys.stderr)
            correct = False
            continue
        if got is not None and got["unit"] != spec["unit"]:
            print("perfbench: %s measured in %s, declared in %s"
                  % (spec["name"], got["unit"], spec["unit"]), file=sys.stderr)
            correct = False
        metrics[spec["name"]] = {
            "value": got["value"] if got is not None else 0.0,
            "unit": spec["unit"]}
    print("reported " + " ".join(sorted(measured)))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
