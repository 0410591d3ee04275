#!/usr/bin/env python3
"""Compares the benchmark on two checkouts, a parent and a change.

    python3 e2ebench/compare.py run --parent DIR --change DIR
        [--workload NAME ...] [--out FILE]
    python3 e2ebench/compare.py report FILE

`run` runs `python3 e2ebench/run.py` in both checkouts, one pair per seed
of SEEDS (ten pairs), alternating which side runs first, saves every result
to FILE (default compare-results.json in the current directory) and prints
the table.  The seeds are none of those the benchmark was tuned on.
`report` prints the table for saved results.

The table has one row per workload and end-to-end metric: each side's
median and quartiles, the parent's quartile spread over its median, the
change's median against the parent's, the metric's bound from
BENCHMARK.json, the share of pairs the change wins (ties count for neither
side), and a verdict under the bound:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run;
  no worse    otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# One pair of runs per seed; a verdict needs all ten.
SEEDS = tuple(range(1000, 1010))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, win_rate) for paired runs of one metric."""
    if len(parent) != len(change) or len(parent) < len(SEEDS):
        raise ValueError("a verdict needs %d pairs of runs, got %d and %d" %
                         (len(SEEDS), len(parent), len(change)))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_rate = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    spread = p3 - p1
    if win_rate >= 0.9 and abs(cm - pm) > spread and sign * (cm - pm) > 0:
        return "improved", win_rate
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", win_rate
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and spread / abs(pm) > bound and not all_better:
        return "unresolved", win_rate
    return "no worse", win_rate


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed in %s (%s seed %d):\n%s" %
                         (checkout, workload, seed, p.stderr[-2000:]))
    return json.loads(lines[-1])


def run(args, spec):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {"parent": {}, "change": {}}
    for w in workloads:
        for side in results:
            results[side][w] = []
        for i, seed in enumerate(SEEDS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                r = run_side(checkout, w, seed, spec["run_seconds"])
                results[side][w].append(r)
                print("%s %s seed %d done" % (w, side, seed), file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(results, f)
    return results


def report(results, spec):
    rows = [("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
             "spread", "shift", "bound", "wins", "verdict")]
    for w, parent_runs in results["parent"].items():
        change_runs = results["change"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent_runs]
            c = [r["metrics"][name]["value"] for r in change_runs]
            v, rate = verdict(p, c, m["better"], m["bound"])
            fmt = lambda q: "/".join("%.4g" % x for x in q)
            p1, pm, p3 = quartiles(p)
            cm = quartiles(c)[1]
            # spread: the parent's quartile distance over its median;
            # shift: the change's median against the parent's.
            rows.append((w, name, fmt((p1, pm, p3)), fmt(quartiles(c)),
                         "%.3f" % ((p3 - p1) / pm), "%+.3f" % (cm / pm - 1),
                         "%.2f" % m["bound"], "%.0f%%" % (100 * rate), v))
        wrong = [r for r in parent_runs + change_runs if not r["correct"]]
        if wrong:
            rows.append((w, "correct", "", "", "", "", "", "", "%d wrong runs" % len(wrong)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(x.ljust(n) for x, n in zip(r, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", action="append")
    r.add_argument("--out", default="compare-results.json")
    p = sub.add_parser("report")
    p.add_argument("file")
    args = ap.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        results = run(args, spec)
    else:
        with open(args.file) as f:
            results = json.load(f)
    report(results, spec)


if __name__ == "__main__":
    main()
