#!/usr/bin/env python3
"""Compares two sets of LogR benchmark results, metric by metric.

Usage:

    python3 logrbench/diff.py BEFORE AFTER [--benchmark BENCHMARK.json]

BEFORE and AFTER are files (or directories of files) holding the
standard output of any number of `logrbench/run.py` runs, concatenated.
For every workload and end-to-end metric it prints each side's median
and quartiles, the change of the median as a share of BEFORE's, and a
verdict against the metric's bound from BENCHMARK.json:

  regressed   AFTER's median is worse by more than the bound
  improved    AFTER's median is better by more than the bound
  unchanged   the medians differ by less than the bound
  unresolved  run-to-run spread (quartile distance over median) on
              either side is wider than the bound, so a change within
              the noise cannot be told apart; unless every AFTER run is
              better (or worse) than every BEFORE run

Traced runs (--trace 1) are compared too, per layer, without bounds.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def read_results(path):
    """{(workload, trace): [result, ...]}; a result is {metric: value}."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    out = {}
    for name in files:
        context = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "workload" in obj:
                    context = obj
                elif "metrics" in obj and context is not None:
                    values = {k: v["value"] for k, v in obj["metrics"].items()}
                    # Workload-specific layer figures ride on the detail line.
                    if context.get("trace"):
                        values.update({k: v["value"] for k, v in
                                       context.get("detail", {}).items()})
                    key = (context["workload"], int(context.get("trace", 0)))
                    out.setdefault(key, []).append(values)
                    context = None
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(before, after, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    # Flip lower-is-better metrics so that larger always means better.
    b = [sign * v for v in before]
    a = [sign * v for v in after]
    if max(spread(before), spread(after)) > bound:
        if min(a) > max(b):
            return "improved"
        if max(a) < min(b):
            return "regressed"
        return "unresolved"
    mb = statistics.median(b)
    gain = (statistics.median(a) - mb) / abs(mb) if mb else 0.0
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "unchanged"


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, os.pardir, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    before, after = read_results(args.before), read_results(args.after)
    regressed = False
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        b_runs, a_runs = before[key], after[key]
        print("== %s%s  (%d vs %d runs)" % (
            workload, " traced" if trace else "", len(b_runs), len(a_runs)))
        print("  %-34s %-38s %-38s %9s  %s" % (
            "metric", "before q1/median/q3", "after q1/median/q3", "change",
            "verdict"))
        names = sorted(set().union(*b_runs) & set().union(*a_runs))
        if not trace:
            names = [n for n in e2e if n in names]
        for name in names:
            b = [r[name] for r in b_runs if name in r]
            a = [r[name] for r in a_runs if name in r]
            mb = statistics.median(b)
            change = (statistics.median(a) - mb) / abs(mb) if mb else 0.0
            if trace:
                verdict_text = ""
            else:
                m = e2e[name]
                verdict_text = "%s (bound %g)" % (
                    verdict(b, a, m["bound"], m["better"]), m["bound"])
                regressed |= verdict_text.startswith("regressed")
            print("  %-34s %-38s %-38s %+8.1f%%  %s" % (
                name, "/".join(fmt(v) for v in quartiles(b)),
                "/".join(fmt(v) for v in quartiles(a)), 100 * change,
                verdict_text))
    for key in sorted(set(before) ^ set(after)):
        print("== %s%s: only in %s" % (key[0], " traced" if key[1] else "",
                                       "BEFORE" if key in before else "AFTER"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
