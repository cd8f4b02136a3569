#!/usr/bin/env python3
"""Build the NDSNN benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build/ (both relative to the working directory); the first
run configures and compiles the library and the driver, later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. --selftest builds and runs the tests
of the benchmark's own helpers.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        if args.selftest:
            return subprocess.run([build(build_dir, "perfbench_helpers_test")]).returncode
        if not args.workload:
            ap.error("--workload is required")
        exe = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", f"{args.seconds:g}", "--trace",
                           str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
