#!/usr/bin/env python3
"""Smoke test of the edge-path benchmark at tiny scale.

Run from the repository root:  python3 perfbench/smoke_test.py

1. Every workload runs untraced, and the traced profile runs once; each must
   exit 0 with "correct": true and exactly the metrics BENCHMARK.json names.
2. Each correctness check is broken on purpose (--inject) and must make the
   run exit non-zero with "correct": false, naming the failed check.
3. A directory holding only BENCHMARK.json and perfbench/ (no library
   sources) must make the benchmark exit non-zero without a result line.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    cmd = [sys.executable, RUN, "--seed", "1", "--seconds", "1"] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    result = None
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    return proc, result


def main():
    failures = []

    def expect(condition, what):
        print("%-4s %s" % ("ok" if condition else "FAIL", what), flush=True)
        if not condition:
            failures.append(what)

    for workload in ("stream", "learn"):
        proc, result = run(["--workload", workload, "--trace", "0", "--tiny"])
        expect(proc.returncode == 0 and result and result["correct"],
               "%s untraced passes its checks" % workload)
    proc, result = run(["--workload", "stream", "--trace", "1", "--tiny"])
    expect(proc.returncode == 0 and result and result["correct"],
           "traced profile passes its checks and its trace validates")

    injections = [
        ("stream_fingerprint", ["--workload", "stream", "--trace", "0"]),
        ("fleet_predictions", ["--workload", "stream", "--trace", "1"]),
        ("provisioning", ["--workload", "learn", "--trace", "0"]),
        ("learn_bundle", ["--workload", "learn", "--trace", "1"]),
    ]
    for check, args in injections:
        proc, result = run(args + ["--tiny", "--inject", check])
        expect(proc.returncode != 0 and result is not None and
               result["correct"] is False and check in proc.stderr,
               "broken %s check fails the run" % check)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    proc, result = run(["--workload", "stream", "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "a checkout without the library sources exits non-zero")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test: %s" % ("FAILED: " + "; ".join(failures)
                              if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
