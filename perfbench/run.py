#!/usr/bin/env python3
"""Build and run the DARCO benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME 'all' runs every workload in turn (one JSON line each).

Configures and builds perfbench/ (libdarco from src/ plus darco_perfbench)
with CMake under $CARGO_TARGET_DIR (default .bench_build), then runs
darco_perfbench. Build output goes to stderr; its stdout is passed
through, so its last line is the JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
WORKLOADS = ["timed-suite", "translate-churn", "async-churn", "sampled-ckpt"]


def configured_for(build_dir):
    """The source directory a build tree was configured for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir, env):
    """Configure and build darco_perfbench (no-ops when current); return its path."""
    home = configured_for(build_dir)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)  # a tree copied from another checkout
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                   stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                    "--target", "darco_perfbench"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "darco_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Keep compiler and run temporaries inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        exe = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        print(f"# workload {name}", flush=True)
        cmd = [exe, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        if done.returncode != 0:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
