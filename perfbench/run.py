#!/usr/bin/env python3
"""Build and run the INSPECTOR pipeline benchmark.

    python3 perfbench/run.py --workload ingest|query|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Every call configures and builds (the
first from scratch, later ones only re-check) a Release build of
inspector_core, inspector_query and pipeline_bench from
perfbench/CMakeLists.txt into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench). Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Scratch files (stores,
sockets, span dumps) go to .bench_out/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "pipeline_bench",
         "inspector_query"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "query", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", ".bench_out",
           "--query-bin", os.path.join(out, "inspector_query")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
