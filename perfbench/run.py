#!/usr/bin/env python3
"""Build the clMPI simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload himeno --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the current directory). Build output goes to stderr, so the last
line on stdout is the benchmark's result JSON. A failed build exits nonzero
without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; True when it succeeded."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not run_quiet(configure):
        # A cache left by a checkout at another path: start the build over once.
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            return False
        shutil.rmtree(out)
        if not run_quiet(configure):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", out, "-j", jobs])


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, env=env, check=False)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["himeno", "nanopowder", "msg_rate"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the harness self-tests instead of a workload")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git", git_sha()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out, "spans-%s.csv" % args.workload)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
