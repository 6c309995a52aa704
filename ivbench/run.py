#!/usr/bin/env python3
"""Build the verifier and run one workload of the repository benchmark.

Run from the root of a checkout:

    python3 ivbench/run.py --workload relu-int16 --seed 1 --seconds 20 --trace 0

Steps: build ivbench/ivbench.exe with dune, train any zoo model the
workload needs that is not yet in _zoo_cache/ (not timed), then run the
measurement in a fresh process.  The last line of standard output is
the result object (correct / attempted / failed / metrics).  Any failure
exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["relu-int16", "acas-int16", "relu-certified"]
EXE = os.path.join("_build", "default", "ivbench", "ivbench.exe")
# Build and training may take long on the first run in a checkout; a
# measurement never should.
BUILD_TIMEOUT_S = 800
MEASURE_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run [cmd] in its own process group; on timeout kill the whole group
    and wait for it.  Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("ivbench: %s timed out after %d s" % (cmd[0], timeout), file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("ivbench: run from the root of a checkout of the repository", file=sys.stderr)
        return 2

    start = time.monotonic()
    # Keep standard output for the result: build and training chatter go
    # to standard error.
    code = run(["dune", "build", "--root", ".", "./ivbench/ivbench.exe"], BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("ivbench: build failed", file=sys.stderr)
        return 1
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    code = run([EXE, "prepare", "--workload", args.workload], max(1, remaining), sys.stderr)
    if code != 0:
        print("ivbench: preparing the zoo models failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    code = run(
        [
            EXE,
            "run",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ],
        MEASURE_TIMEOUT_S,
        None,
    )
    if code is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
