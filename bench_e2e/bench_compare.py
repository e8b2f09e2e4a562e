#!/usr/bin/env python3
"""Noise-aware comparison of two sets of BENCH_e2e.json runs.

    python3 bench_e2e/bench_compare.py --base A.json [A2.json ...] \\
        --head B.json [B2.json ...] [--claim WORKLOAD:METRIC]

Each file holds one or more suite runs (run.py --runs N). For every
workload x end-to-end metric of BENCHMARK.json it prints the median and
quartiles of each side and a verdict against the metric's bound:

  REGRESSION  head's median is worse than base's by more than the bound
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, so the data cannot tell, unless every head run reads
              better than every base run
  better      head's median is better by more than the bound
  ok          within the bound

A run that failed a correctness check, or more failed queries in head than
in base, is a regression too. `--claim` applies the paired-win rule to one
workload:metric: runs pair up in file order (alternate which side runs
first), at least ten pairs, head must win at least 9 of every 10 pairs
(ties count for neither), and the medians must differ by more than base's
quartile distance.

Exits 1 on any regression, unresolved metric or unmet claim, else 0.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_CLAIM_PAIRS = 10


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.extend(json.load(f)["runs"])
    return runs


def quartiles(values):
    # Inclusive quartiles interpolate between runs; the default method puts
    # them at the extremes for three runs, so one disturbed run would make
    # every metric unresolved.
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values(runs, workload, metric):
    return [r["workloads"][workload]["metrics"][metric] for r in runs
            if metric in r["workloads"].get(workload, {}).get("metrics", {})]


def compare(base_runs, head_runs, spec):
    """Prints the table; returns the number of problems found."""
    problems = 0
    present = {w for r in base_runs + head_runs for w in r["workloads"]}
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in present]
    print("%-23s %-23s %29s %29s %7s %7s  %s" % (
        "workload", "metric", "base q1 / median / q3",
        "head q1 / median / q3", "change", "spread", "verdict"))
    for workload in workloads:
        for side, runs in (("base", base_runs), ("head", head_runs)):
            bad = [i for i, r in enumerate(runs)
                   if not r["workloads"].get(workload, {}).get("correct")]
            if bad:
                print("%-24s %s runs %s failed or are missing" % (
                    workload, side, bad))
                problems += 1
        failed = [sum(r["workloads"].get(workload, {}).get("failed", 0)
                      for r in runs) for runs in (base_runs, head_runs)]
        if failed[1] > failed[0]:
            print("%-24s failed queries rose: %d -> %d  REGRESSION" % (
                workload, failed[0], failed[1]))
            problems += 1
        for m in spec["end_to_end"]:
            base = values(base_runs, workload, m["name"])
            head = values(head_runs, workload, m["name"])
            if not base or not head:
                continue
            lower = m["better"] == "lower"
            b_q, h_q = quartiles(base), quartiles(head)
            b_med, h_med = b_q[1], h_q[1]
            worse = (h_med - b_med) if lower else (b_med - h_med)
            worse /= abs(b_med) if b_med else 1.0
            width = max(spread(base), spread(head))
            all_better = (max(head) < min(base)) if lower else \
                (min(head) > max(base))
            if width > m["bound"]:
                verdict = "better" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "ok"
            problems += verdict in ("unresolved", "REGRESSION")
            print("%-23s %-23s %9.4g %9.4g %9.4g %9.4g %9.4g %9.4g "
                  "%+6.1f%% %6.1f%%  %s" % (
                      workload, m["name"], *b_q, *h_q,
                      100.0 * (h_med - b_med) / b_med if b_med else 0.0,
                      100.0 * width, verdict))
    return problems


def check_claim(base_runs, head_runs, claim, spec):
    """The paired-win rule for one workload:metric; True when it holds."""
    workload, metric = claim.split(":", 1)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}[metric]
    base = values(base_runs, workload, metric)
    head = values(head_runs, workload, metric)
    pairs = list(zip(base, head))
    wins = sum((h < b) if better == "lower" else (h > b) for b, h in pairs)
    q1, b_med, q3 = quartiles(base)
    gap = abs(statistics.median(head) - b_med)
    holds = (len(pairs) >= MIN_CLAIM_PAIRS and wins * 10 >= 9 * len(pairs)
             and gap > q3 - q1)
    print("claim %s: head wins %d of %d pairs (at least %d needed); median "
          "gap %.5g vs base quartile distance %.5g -> %s" % (
              claim, wins, len(pairs), MIN_CLAIM_PAIRS, gap, q3 - q1,
              "holds" if holds else "NOT met"))
    return holds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    parser.add_argument("--claim", help="WORKLOAD:METRIC to test for a gain")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    print("base: %d runs, head: %d runs" % (len(base_runs), len(head_runs)))
    problems = compare(base_runs, head_runs, spec)
    if args.claim and not check_claim(base_runs, head_runs, args.claim, spec):
        problems += 1
    print("%d problem(s)" % problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
