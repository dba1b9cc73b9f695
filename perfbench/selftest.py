#!/usr/bin/env python3
"""Self-checks of the benchmark; run them after changing perfbench/.

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

For each workload:
  1. two traced runs with one seed report every exact per-layer metric
     (units count, ratio, bytes, bytes/row) bit-for-bit equal, so later
     changes can gate on them exactly;
  2. the traced runs, an untraced run and untraced runs with one-thread
     and two-thread pools print the same output digest;
  3. a second seed passes the correctness checks, and the driver measures
     the same metric names for it (the "reported" line, not run.py's
     zero-filled list);
  4. every end-to-end metric of an untraced run is nonzero.
When every workload runs, the per-layer names the driver measures over the
three workloads must be exactly BENCHMARK.json's per_layer list, so a
metric that no workload measures fails rather than reading 0.
Exits 1 at the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("advise", "serve-hot", "serve-cold")
EXACT_UNITS = {"count", "ratio", "bytes", "bytes/row"}


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def run(workload, seed, seconds, trace, threads=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited %d" % (" ".join(cmd[1:]), proc.returncode))
    result = json.loads(lines[-1])
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    reported = [line.split()[1:] for line in lines
                if line.startswith("reported ")]
    if not result["correct"] or len(digests) != 1 or len(reported) != 1:
        fail("%s: incorrect result, or no digest or reported line"
             % " ".join(cmd[1:]))
    result["reported"] = set(reported[0])
    return result, digests[0]


def check_workload(workload, seconds):
    traced_a, digest_a = run(workload, 1, seconds, 1)
    traced_b, digest_b = run(workload, 1, seconds, 1)
    exact = [name for name, m in traced_a["metrics"].items()
             if m["unit"] in EXACT_UNITS]
    for name in exact:
        a = traced_a["metrics"][name]["value"]
        b = traced_b["metrics"][name]["value"]
        if a != b:
            fail("%s: exact metric %s differs across runs: %r vs %r"
                 % (workload, name, a, b))

    untraced, digest_0 = run(workload, 1, seconds, 0)
    _, digest_1 = run(workload, 1, seconds, 0, threads=1)
    _, digest_2 = run(workload, 1, seconds, 0, threads=2)
    if len({digest_a, digest_b, digest_0, digest_1, digest_2}) != 1:
        fail("%s: digests differ: traced %s %s, untraced %s, one thread %s, "
             "two threads %s"
             % (workload, digest_a, digest_b, digest_0, digest_1, digest_2))
    zero = [n for n, m in untraced["metrics"].items() if m["value"] == 0]
    if zero:
        fail("%s: end-to-end metrics read 0: %s" % (workload, zero))

    traced_2, _ = run(workload, 2, seconds, 1)
    untraced_2, _ = run(workload, 2, seconds, 0)
    if (traced_2["reported"] != traced_a["reported"] or
            untraced_2["reported"] != untraced["reported"]):
        fail("%s: seed 2 measures another metric set" % workload)
    print("selftest: %s ok (%d exact metrics equal, digest %s)"
          % (workload, len(exact), digest_0))
    return traced_a["reported"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    measured = set()
    for workload in args.workload or WORKLOADS:
        measured |= check_workload(workload, args.seconds)
    if not args.workload or set(args.workload) == set(WORKLOADS):
        with open(SPEC) as f:
            declared = {m["name"] for m in json.load(f)["per_layer"]}
        if measured != declared:
            fail("per-layer metrics declared but measured by no workload: %s"
                 % sorted(declared - measured))
        print("selftest: all %d per-layer metrics measured" % len(declared))


if __name__ == "__main__":
    main()
