#!/usr/bin/env python3
"""Build and run the host-time benchmark of the Hipster simulator.

Run from the repository root:

    python3 hostbench/run.py --workload mc-open --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first call configures and compiles hostbench/ (the simulator
library from src/ plus the benchmark) into .bench_build/hostbench, or
into $CARGO_TARGET_DIR/hostbench when that variable is set; later calls
only rebuild what changed. The benchmark's output passes through
unchanged: lines for people, then one JSON object as the last line.
With --trace 1 the spans of the traced run are written to
<build dir>/spans/<workload>.csv.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["mc-open", "ws-closed", "fleet-mixed"]
PACKAGE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE)
# One invocation must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4", "--target",
                  "hostbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(out_dir, "hostbench")


def run_one(binary, out_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-file", os.path.join(spans, f"{workload}.csv")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: exited with code {done.returncode}")
    return done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        sys.stdout.write(run_one(binary, out_dir, name, args))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
