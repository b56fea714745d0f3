#!/usr/bin/env python3
"""Runs the LogR benchmark over several seeds and collects the results.

Usage, from the root of a LogR checkout:

    python3 logrbench/collect.py --out results.txt [--seeds 1-10]
        [--workloads ingest-bank,compress-bank,serve-mixed]
        [--seconds N] [--trace 0|1]

Runs the seeds in turn and, for each seed, every workload in turn, so a
slow spell of the machine falls on all workloads alike. Appends every
run's last two output lines (detail and result) to --out, the format
logrbench/diff.py reads, after a "# tree" line naming the time and a
hash of what the runs were built and run from (the library sources,
the benchmark's sources, run.py and BENCHMARK.json), so a result file
shows which code made it. Prints per workload and metric the median and the spread: the
distance between the first and third quartile as a share of the median.
A run that fails stops the collection with a non-zero exit.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tree_hash():
    """sha256 over the paths and contents of the sources a run builds."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "BENCHMARK.json"),
             os.path.join(HERE, "CMakeLists.txt"),
             os.path.join(HERE, "run.py")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    with open(args.out, "a") as out:
        out.write("# tree %s %s\n" % (tree_hash(), time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())))
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()[-2:]
            with open(args.out, "a") as out:
                out.write("\n".join(lines) + "\n")
            if proc.returncode != 0 or len(lines) != 2:
                print("%s seed %d failed: %s" % (workload, seed, lines[:1]))
                return 1
            for name, m in json.loads(lines[1])["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    for workload in workloads:
        print("== %s (%d runs, seeds %d-%d)" % (
            workload, len(args.seeds), args.seeds[0], args.seeds[-1]))
        for name, v in values[workload].items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (med, med, med))
            print("  %-36s median %-14.6g spread %.3f" % (
                name, med, (q3 - q1) / med if med else 0.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
