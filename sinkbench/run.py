#!/usr/bin/env python3
"""Build and run the sink benchmark.

    python3 sinkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 sinkbench/run.py --test

Run from the repository root. The benchmark is built from source into
.bench_build/sinkbench (the pnm library plus the sinkbench binary), then run
with the given arguments. When sinkbench/pins.json pins a digest for this
(workload, seed), it is passed on and checked. The last line of standard
output is the JSON result; the exit code is 0 only when every check passed.
`--test` builds and runs the benchmark's own tests instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sinkbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
RUN_TIMEOUT_S = 170


def build(target):
    """Configure (cheap when cached) and build `target`; False on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", target, "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout must end with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as f:
        pins = json.load(f)
    return pins["digests"].get(workload, {}).get(str(seed), "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        if not build("sinkbench_test"):
            return 2
        return subprocess.run([os.path.join(BUILD, "sinkbench_test")]).returncode
    if not args.workload:
        ap.error("--workload is required")
    if not build("sinkbench"):
        return 2

    os.makedirs(TMP, exist_ok=True)
    cmd = [os.path.join(BUILD, "sinkbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", TMP]
    pin = pinned_digest(args.workload, args.seed)
    if pin:
        cmd += ["--pin", pin]
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sinkbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
