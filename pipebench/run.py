#!/usr/bin/env python3
"""Build and run the vmpower pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload tick-mixed8 --seed 1 --seconds 10 --trace 0

The benchmark is compiled from this directory's CMake project (which
compiles ../src) in Release mode into $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when the variable is unset. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Run
artifacts (result records, traces) go to .bench_out/.

Any other arguments, such as --spec or --self-test, are passed to the
benchmark binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    """Configure and build bench_pipeline; returns the binary's path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "pipebench")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_pipeline"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_pipeline")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"pipebench: build failed: {error}", file=sys.stderr)
        return 1
    argv = [binary] + sys.argv[1:]
    if "--workload" in argv:
        argv += ["--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"pipebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
