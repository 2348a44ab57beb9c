#!/usr/bin/env python3
"""Edge-path benchmark: builds the edgebench binary from this checkout and
runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream|learn --seed N \
        --seconds S --trace 0|1 [--tiny] [--inject CHECK]

The library under ../src and the edgebench binary under perfbench/src are
built in Release mode into $CARGO_TARGET_DIR (default .bench_build) on first
use and re-built incrementally afterwards. Build output goes to stderr.
The binary's per-metric lines go to stdout; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. With --trace 1
the Chrome trace the binary wrote is checked with tools/validate_trace.py.
Reports and traces land in .bench_out/. The exit status is 0 only when
every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, configured)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                       "edgebench"], stdout=sys.stderr,
                      stderr=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed")
    return os.path.join(out, "edgebench")


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["stream", "learn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale; not a measurement")
    parser.add_argument("--inject", help="deliberately break one check")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("edgebench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("edgebench printed no result (exit %d)" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)

    ok = proc.returncode == 0 and result.get("correct") is True
    names = sorted(result.get("metrics", {}))
    if names != sorted(expected_metrics(args.trace)):
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(names) ^ set(expected_metrics(args.trace))),
              file=sys.stderr)
        ok = False
    if args.trace:
        trace = os.path.join(OUT_DIR, "%s-seed%d-trace.trace.json"
                             % (args.workload, args.seed))
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py"),
             trace], stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if check.returncode != 0:
            ok = False
    result["correct"] = ok
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
