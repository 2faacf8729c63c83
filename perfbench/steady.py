#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

    python3 perfbench/steady.py [--workloads ingest,query,serve] [--runs 10]
        [--seed 1] [--second-seed N]

Runs each workload in two independent sets of --runs untraced runs of
BENCHMARK.json's run_seconds, each run on its own seed (set one: --seed,
--seed+1, ...; set two: --second-seed, ... which defaults to --seed +
--runs). For every end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles, the quartile spread as a share of the
median, and whether the two sets agree within the metric's bound:

  * spread <= bound in each set,
  * the two medians differ by at most the bound, as a share of the
    smaller one, in either direction,
  * the share of failed operations is the same in every run.

The bounds in BENCHMARK.json are set from this output (the target is a
spread below a third of the bound). To re-check a claimed gain on a seed
not used while writing it, pass the hold-out seed (1000) as --seed.
Exit status 0 when every check holds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q1, q2, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="ingest,query,serve")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    second = (args.second_seed if args.second_seed is not None
              else args.seed + args.runs)
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for base in (args.seed, second):
            results = [run_once(workload, base + i, seconds)
                       for i in range(args.runs)]
            sets.append(results)
        print("== %s (%d runs x 2 sets, %ds each, seeds %d.. and %d..)" %
              (workload, args.runs, seconds, args.seed, second))
        shares = []
        for results in sets:
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            shares.append(failed / attempted)
            if not all(r["correct"] for r in results):
                print("  INCORRECT run in a set")
                ok = False
        if len({r["failed"] / r["attempted"] for s in sets for r in s}) != 1:
            print("  failed share differs between runs: %s" % shares)
            ok = False
        print("  %-16s %10s %10s %10s %8s | %10s %10s %10s %8s | %6s %s" %
              ("metric", "q1", "median", "q3", "spread", "q1", "median", "q3",
               "spread", "bound", "verdict"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                stats.append(summarize(values))
            (a1, am, a3, asp), (b1, bm, b3, bsp) = stats
            gap = abs(bm - am) / min(am, bm)
            verdict = "ok" if max(asp, bsp) <= bound and gap <= bound \
                else "FAIL"
            if verdict == "ok" and max(asp, bsp) > bound / 3:
                verdict = "ok (spread above bound/3)"
            ok = ok and verdict.startswith("ok")
            print("  %-16s %10.4g %10.4g %10.4g %8.4f | %10.4g %10.4g %10.4g "
                  "%8.4f | %6.3f %s" % (name, a1, am, a3, asp, b1, bm, b3,
                                         bsp, bound, verdict))
        sys.stdout.flush()
    print(json.dumps({"steady": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
