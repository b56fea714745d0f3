#!/usr/bin/env python3
"""Runs one workload of the LogR benchmark and prints its result.

Usage, from the root of a LogR checkout:

    python3 logrbench/run.py --workload ingest-bank --seed 1 \
        --seconds 10 --trace 0

Builds the library and the logrbench binary from source (CMake, Release)
into $CARGO_TARGET_DIR, else .bench_build, then runs it in a scratch
directory under .bench_work that is removed afterwards. The last line of
stdout is the JSON result; the line before it records the workload, the
seed, sample counts and any failed checks. Exits non-zero when the build
fails, a check fails or the run does not finish in time.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest-bank", "compress-bank", "serve-mixed")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170
# The library's worker pool runs with one thread. On a shared VM the
# parallelism a process actually gets swings up to 3x from one process to
# the next (a 4-thread pattern encode took 14 ms in one run and 51 ms in
# the next), which would bury any change to the code itself.
POOL_THREADS = "1"


def build(build_dir):
    """Configures and builds the binary; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "--target", "logrbench", "-j", "4"],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("logrbench: build step failed: %s\n"
                             % " ".join(step))
            return None
    return os.path.join(build_dir, "logrbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    ap.add_argument("--corrupt", choices=("logrl", "summary"))
    args = ap.parse_args()

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if binary is None:
        return 2
    # Relative, so the daemon's Unix socket path stays short.
    work = os.path.join(".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work, "--scale", args.scale]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        env = dict(os.environ, LOGR_THREADS=POOL_THREADS)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        sys.stderr.write("logrbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only once no run uses it
        except OSError:
            pass
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
