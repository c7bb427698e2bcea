#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload dacapo|kv-net|repl-write \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the checkout root (CMake,
RelWithDebInfo) and is reused by later runs. A traced run writes its
trace-event file to .bench_trace/<workload>-seed<N>.json. The last line of
standard output is the benchmark's JSON result; everything else, build
output included, goes to standard error. Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_trace"
WORKLOADS = ("dacapo", "kv-net", "repl-write")
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def check(cmd, timeout):
    """Runs cmd with its output on stderr; False when it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"{cmd[0]} failed: {exc}")
        return False
    return proc.returncode == 0


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout; later runs find it done.
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            if not check(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
                return False
        return check(["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS),
                      "--target", "perfbench", "perfbench_selftest"], 840)


def clean_env():
    # The program reads MGC_* knobs (scale, seed, threads, collector, fault
    # specs); the workloads define their own inputs, so none may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("MGC_")}


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=clean_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--selftest", action="store_true",
                    help="run the self-test of the output checks")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        log("build failed")
        return 1

    if args.selftest:
        code, out = run([str(BUILD / "perfbench_selftest")])
        sys.stdout.write(out)
        return code

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"benchmark exited with {code}")
        return code or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        log("benchmark printed no result line")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
