#!/usr/bin/env python3
"""Compare two bench/suite/run.sh result files under BENCHMARK.json's bounds.

  python3 bench/suite/compare.py A.json B.json

Prints one row per workload x end-to-end metric: the medians of A (the
parent) and B (the change), the change of the median, each side's
run-to-run spread (p25-p75 distance over the median), the metric's bound,
and a verdict:

  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  A's own spread is wider than the bound, so the parent cannot
              resolve a change of that size -- unless every run of B reads
              better (improved) or worse (regressed) than every run of A

Resolution is judged on A's spread alone, so a change cannot hide a
regression by making a metric noisier. A row where B's spread is above the
bound and more than twice A's is flagged "B noisier" as a warning.

Exits 1 when any row regressed or when B's share of failed ops is higher
than A's, 0 otherwise.
"""

import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(m):
    return (m["p75"] - m["p25"]) / m["median"] if m["median"] else float("inf")


def all_better(x, y, better):
    """Every run of x reads better than every run of y."""
    if better == "lower":
        return max(x["values"]) < min(y["values"])
    return min(x["values"]) > max(y["values"])


def verdict(a, b, better, bound):
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worse = change if better == "lower" else -change
    if spread(a) > bound:
        if all_better(b, a, better):
            return "improved"
        if all_better(a, b, better):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def noisier(a, b, bound):
    return spread(b) > bound and spread(b) > 2.0 * spread(a)


def failed_share(result):
    attempted = sum(w["ops_attempted"] for w in result["workloads"].values())
    failed = sum(w["ops_failed"] for w in result["workloads"].values())
    return failed / attempted if attempted else 1.0


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    spec = load(os.path.join(here, "..", "..", "BENCHMARK.json"))

    print("%-17s %-17s %14s %14s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "A median", "B median", "change", "A spread",
        "B spread", "bound", "verdict"))
    regressions = 0
    warnings = 0
    for w in (x["name"] for x in spec["workloads"]):
        if w not in a["workloads"] or w not in b["workloads"]:
            print("%-17s missing from %s" % (w, "A" if w not in a["workloads"] else "B"))
            continue
        for m in spec["end_to_end"]:
            ma = a["workloads"][w]["metrics"][m["name"]]
            mb = b["workloads"][w]["metrics"][m["name"]]
            v = verdict(ma, mb, m["better"], m["bound"])
            regressions += v == "regressed"
            if noisier(ma, mb, m["bound"]):
                warnings += 1
                v += " (B noisier)"
            change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
            print("%-17s %-17s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.1f%%  %s" % (
                w, m["name"], ma["median"], mb["median"], 100.0 * change,
                100.0 * spread(ma), 100.0 * spread(mb), 100.0 * m["bound"], v))

    fa, fb = failed_share(a), failed_share(b)
    print("ops failed: A %.3g%%, B %.3g%%" % (100.0 * fa, 100.0 * fb))
    if warnings:
        print("WARNING: %d row(s) where B's spread is above the bound and more "
              "than twice A's" % warnings)
    if fb > fa:
        print("FAIL: B fails a larger share of ops than A")
        return 1
    if regressions:
        print("FAIL: %d regressed row(s)" % regressions)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
