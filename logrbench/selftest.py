#!/usr/bin/env python3
"""Self-test of the LogR benchmark at tiny scale.

Usage, from the root of a LogR checkout:

    python3 logrbench/selftest.py

Checks that
  * every workload prints every metric BENCHMARK.json names, with its
    unit, untraced and traced, and a result line of exactly the four
    keys correct/attempted/failed/metrics, with the seed recorded on
    the line before;
  * a corrupted .logrl or summary trips the output checks (the run
    reports correct=false and exits non-zero);
  * the traced run passes its own checks, which include that every
    span's self time is non-negative and no larger than the span, and
    that AddSql's self time lies within AddSql's time;
  * without the LogR sources next to it, run.py exits non-zero without
    printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(".bench_work", "selftest-%d" % os.getpid())

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2]) if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, detail, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = dict(layer)
    traced.update({"traced." + k: v for k, v in e2e.items()})
    os.makedirs(SCRATCH, exist_ok=True)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, expect in ((0, e2e), (1, traced)):
            rc, detail, result = run(name, trace)
            label = "%s trace=%d" % (name, trace)
            check(rc == 0 and result and result["correct"] and
                  result["failed"] == 0, "%s: exit 0, correct, no failures%s"
                  % (label, "" if rc == 0 else " (%s)" % (
                      detail or {}).get("failures")))
            if not result:
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], label + ": result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expect, label + ": every metric with its unit")
            check(detail and detail.get("seed") == 7, label + ": seed recorded")

    for workload, target in (("ingest-bank", "logrl"),
                             ("compress-bank", "summary")):
        rc, _, result = run(workload, 0, "--corrupt", target)
        check(rc != 0 and result and not result["correct"] and
              result["failed"] > 0,
              "%s: corrupted %s fails the run" % (workload, target))

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "logrbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run([sys.executable, "logrbench/run.py", "--workload",
                           "ingest-bank", "--seed", "1", "--seconds", "1"],
                          cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180,
                          env=env)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without LogR sources: non-zero exit, no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(SCRATCH))  # only if no run uses it
    except OSError:
        pass

    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
