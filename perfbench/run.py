#!/usr/bin/env python3
"""Build the simulator benchmark in Release and run one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <paper-roster|autotune-sweep|serve-2dev>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the simulator
libraries from src/) under .bench_build/; later calls rebuild only what
changed. The benchmark's stdout is passed through: its last line is
one JSON object with "correct", "attempted", "failed" and "metrics".
Each run also writes its simulated-statistics record to
.bench_build/results/<workload>-seed<n>-trace<t>.json (and, traced, its
spans to ...spans.jsonl); perfbench/compare.py compares two records.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("paper-roster", "autotune-sweep", "serve-2dev")
# A run's own time limit; the benchmark stops well before it.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; return the binary path or None on failure."""
    os.makedirs(BUILD, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                break
        else:
            return os.path.join(BUILD, "perfbench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--results", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
