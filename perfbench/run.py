#!/usr/bin/env python3
"""Build and run the NTT-PIM benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the library modules and the
benchmark binary (Release) into $CARGO_TARGET_DIR, default .bench_build,
then runs one workload. The binary's last stdout line is the JSON result;
build output goes to stderr. Exits non-zero, without a result, when the
sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_sweep", "serve_open", "serve_backlog")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no NTT-PIM sources next to %s" % BENCH_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
