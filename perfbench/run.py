#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The optimized build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is
incremental, so only the first run compiles. Build output goes to stderr;
the last line of stdout is the binary's JSON result. Exits non-zero,
printing no result, when the sources are missing, the build fails or the
run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
# Set-up, warm-up and start-up come on top of the measured seconds.
RUN_OVERHEAD_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MAQS sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail("build failed: %s" % error)
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build(build_dir())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=args.seconds + RUN_OVERHEAD_S)
    except (OSError, subprocess.SubprocessError) as error:
        fail("run failed: %s" % error)
    if result.returncode != 0:
        fail("perfbench exited with code %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result on the last line of output")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
