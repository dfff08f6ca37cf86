#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zipf_convoy --seed 1 --seconds 10 --trace 0

The first run configures and builds `thinbench` (perfbench/CMakeLists.txt,
Release, -O3 -DNDEBUG) under .bench_build/perfbench; later runs rebuild
only what changed.  Build output goes to stderr.  The benchmark's own
output goes to stdout, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the Chrome
trace of the traced half is written to .bench_build/traces/<workload>.json.

The exit code is the benchmark's: 0 when every self-check passed, 1 when
one failed; a build failure exits 1 before anything is measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "thinbench")
WORKLOADS = ("macro_replay", "zipf_convoy", "sessions_open", "txn_validated")
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build step with its output sent to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs]) == 0


def source_digest():
    """A digest of the measured sources, so results stay attributable
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:12]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stamp", "commit=%s src_sha256=%s" % (commit(), source_digest())]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACE_DIR, args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %ds" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
