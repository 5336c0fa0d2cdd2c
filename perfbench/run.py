#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the `anonsafe` CLI and the perfbench harness from source (once per
checkout; later runs are a no-op build), then runs one workload:

    python3 perfbench/run.py --workload assess_churn --seed 1 --seconds 15 --trace 0

The last line of standard output is the JSON result. `--selftest` instead
checks the harness's statistics and name rules and runs every workload of
BENCHMARK.json in a short smoke mode. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import re
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds; build chatter goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "perfbench_harness", "perfbench_selftest", "anonsafe_cli"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def die_with_parent():
    """Makes the harness (and through it the server) exit if we are killed."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def harness_cmd(out_dir, workload, seed, seconds, trace, smoke=False):
    work = os.path.join(out_dir, "run-" + workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out_dir, "perfbench_harness"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", os.path.join(out_dir, "anonsafe", "tools", "anonsafe"),
           "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    return cmd


def selftest(out_dir):
    failures = []
    if subprocess.run([os.path.join(out_dir, "perfbench_selftest")]).returncode:
        failures.append("perfbench_selftest")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not NAME_RE.match(metric["name"]):
                failures.append("bad metric name " + metric["name"])
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = harness_cmd(out_dir, workload["name"], 1, 1, trace, True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=180, preexec_fn=die_with_parent)
            label = "%s trace=%d" % (workload["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                failures.append(label + ": exit %d" % proc.returncode)
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                failures.append(label + ": incorrect answers")
            if got != want:
                failures.append(label + ": metrics differ from BENCHMARK.json")
            print("smoke %-26s ok=%s attempted=%d" %
                  (label, result["correct"], result["attempted"]))
    for f in failures:
        print("FAIL: " + f)
    print("perfbench selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(out_dir)
    cmd = harness_cmd(out_dir, args.workload, args.seed, args.seconds,
                      args.trace)
    return subprocess.run(cmd, preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main())
