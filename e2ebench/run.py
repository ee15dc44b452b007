#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, run one workload, print the result.

    python3 e2ebench/run.py --workload paper-skybyte --seed 42 --seconds 30 --trace 0

Run from the repository root. Builds the simulator library and the
benchmark from source with CMake into $CARGO_TARGET_DIR (default
.bench_build), then runs skybyte_e2e. Its human-readable lines go to
stderr; the last stdout line is the JSON result. Exits nonzero when the
build fails, the run fails or times out, or any point fails the
correctness gate. See e2ebench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
# Every run, build check included, must end within this many seconds.
RUN_DEADLINE_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configure (once) and build @p targets; returns the build directory."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs, "--target", *targets]):
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    start = time.monotonic()
    try:
        out = build(["skybyte_e2e"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "skybyte_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt")]
    # The simulator reads a few SKYBYTE_* knobs from the environment;
    # the benchmark runs with none of them set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKYBYTE_")}
    # A build that just compiled everything has had its own deadline.
    deadline = max(RUN_DEADLINE_S - (time.monotonic() - start), args.seconds + 60)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=deadline)
    except subprocess.TimeoutExpired:
        print(f"run.py: skybyte_e2e did not finish in {deadline:.0f} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: skybyte_e2e exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 4
    if set(result) != RESULT_KEYS:
        print(f"run.py: unexpected result keys {sorted(result)}", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
