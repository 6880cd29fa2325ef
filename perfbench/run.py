#!/usr/bin/env python3
"""Builds and runs the end-to-end EXCESS benchmark.

    python3 perfbench/run.py --workload <point-lookup|join-report|commit-mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine is compiled from src/ by this
directory's own CMake project into .bench_build/; each run gets a fresh
temporary directory under .bench_build/ for its socket and database files,
removed when the run ends. The last line of standard output is the run's
JSON result. Exit status is non-zero when the build, the set-up or a
correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "excess_perfbench")
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "excess_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def git_commit():
    """HEAD of the checkout, read from .git without running git (a plain
    source checkout has no .git and reports 'none')."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def src_digest():
    """SHA-256 over the engine sources, so runs of different trees differ."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["point-lookup", "join-report", "commit-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("engine sources not found next to the benchmark")
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--src-digest", src_digest()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        return subprocess.run(cmd, cwd=tmp, timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
