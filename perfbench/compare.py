#!/usr/bin/env python3
"""Repeat-and-compare for the perfbench benchmark.

Collect two sets of runs, then compare them metric by metric and
workload by workload:

    # Set a = this checkout, set b = another checkout (or this one again
    # when --against is omitted); runs alternate a/b per seed, with the
    # side that goes first swapped every seed.
    python3 perfbench/compare.py collect --out DIR --runs 10 \
        [--against OTHER_CHECKOUT] [--workload W ...] [--trace 0|1]

    python3 perfbench/compare.py report DIR        # DIR/a vs DIR/b
    python3 perfbench/compare.py report DIR_A DIR_B

Each saved run is the result line of perfbench/run.py, stored as
<set>/<workload>/<seed>.json, next to <seed>.env with the binary that
ran and its environment stamp. Each checkout builds its own binary;
collect stops if the two sides of a pair ran the same one. The report prints one row per workload x
metric: each side's median and quartiles (statistics.quantiles, n=4),
its spread (interquartile distance / median), the ratio of medians,
the pairs b won, and a verdict:

  gain        b wins >= 9/10 of the pairs and the medians differ by
              more than a's interquartile distance
  regression  b's median is worse than a's by more than the metric's
              bound (BENCHMARK.json)
  unresolved  a spread exceeds the bound and not every b run beats
              every a run
  same        none of the above

"accept" repeats the benchmark's own acceptance test for two sets of
the same code, on every end-to-end metric: both spreads within the
bound and b's median not worse than a's by more than the bound. "steady" marks a
spread below a third of the bound. Exit status 1 when a run was
incorrect or a row is a regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["python3", os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    binary = [l for l in proc.stderr.splitlines()
              if l.startswith("perfbench binary")]
    env = [l for l in proc.stderr.splitlines() if l.startswith("perfbench env")]
    result = lines[-1] if lines else json.dumps(
        {"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
    return (result,
            binary[0] if binary else "perfbench binary: unknown",
            env[0] if env else "perfbench env: unknown (run failed)")


def collect(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = [("a", ROOT), ("b", os.path.abspath(args.against or ROOT))]
    for k in range(args.runs):
        seed = args.seed_base + k
        for workload in workloads:
            order = sides if k % 2 == 0 else sides[::-1]
            binaries = {}
            for name, checkout in order:
                line, binary, env = run_once(checkout, workload, seed,
                                             seconds, args.trace)
                binaries[name] = binary
                out = os.path.join(args.out, name, workload)
                os.makedirs(out, exist_ok=True)
                with open(os.path.join(out, "%d.json" % seed), "w") as f:
                    f.write(line + "\n")
                with open(os.path.join(out, "%d.env" % seed), "w") as f:
                    f.write(binary + "\n" + env + "\n")
                print("%s %s seed=%d %s" % (name, workload, seed, line[:100]),
                      file=sys.stderr)
            if sides[0][1] != sides[1][1] and binaries["a"] == binaries["b"]:
                print("compare: both checkouts ran %s" % binaries["a"],
                      file=sys.stderr)
                sys.exit(2)


def load_set(path):
    """{workload: {seed: result}}"""
    runs = {}
    for workload in sorted(os.listdir(path)):
        folder = os.path.join(path, workload)
        for name in os.listdir(folder):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(folder, name)) as f:
                runs.setdefault(workload, {})[int(name.split(".")[0])] = \
                    json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args):
    a_dir, b_dir = (args.sets + [None])[:2]
    if b_dir is None:
        a_dir, b_dir = os.path.join(a_dir, "a"), os.path.join(a_dir, "b")
    a_runs, b_runs = load_set(a_dir), load_set(b_dir)
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})

    bad = False
    header = ("%-12s %-26s %12s %12s %7s %12s %7s %7s %6s  %-10s %s"
              % ("workload", "metric", "a median", "a IQR", "a sprd",
                 "b median", "b sprd", "b/a", "b wins", "verdict",
                 "accept steady"))
    print(header)
    for workload in sorted(set(a_runs) & set(b_runs)):
        seeds = sorted(set(a_runs[workload]) & set(b_runs[workload]))
        for side in (a_runs, b_runs):
            for seed in seeds:
                r = side[workload][seed]
                if not r.get("correct") or r.get("failed"):
                    print("%s seed %d: run incorrect" % (workload, seed))
                    bad = True
        names = sorted(set().union(
            *(a_runs[workload][s]["metrics"] for s in seeds)))
        for name in names:
            m = metrics.get(name, {"better": "lower", "bound": None})
            try:
                a = [a_runs[workload][s]["metrics"][name]["value"]
                     for s in seeds]
                b = [b_runs[workload][s]["metrics"][name]["value"]
                     for s in seeds]
            except KeyError:
                continue
            qa, qb = quartiles(a), quartiles(b)
            iqr_a = qa[2] - qa[0]
            spread_a = iqr_a / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            ties = sum(1 for x, y in zip(a, b) if x == y)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            worse_by = -sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            bound = m["bound"]
            all_better = all(sign * (y - x) > 0 for x in a for y in b)
            if wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > iqr_a \
                    and ties < len(seeds):
                verdict = "gain"
            elif bound is not None and max(spread_a, spread_b) > bound \
                    and not all_better:
                verdict = "unresolved"
            elif bound is not None and worse_by > bound:
                verdict = "regression"
                bad = True
            else:
                verdict = "same"
            if bound is None:
                accept = steady = "-"
            else:
                spreads_ok = spread_a <= bound and spread_b <= bound
                accept = "yes" if spreads_ok and worse_by <= bound else "NO"
                steady = "yes" if max(spread_a, spread_b) < bound / 3 \
                    else "no"
            print("%-12s %-26s %12.6g %12.6g %7.3f %12.6g %7.3f %7.3f "
                  "%3d/%-2d  %-10s %-6s %s"
                  % (workload, name, qa[1], iqr_a, spread_a, qb[1], spread_b,
                     ratio, wins, len(seeds), verdict, accept, steady))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--against")
    c.add_argument("--workload", action="append")
    c.add_argument("--seconds", type=float)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--seed-base", type=int, default=1)
    r = sub.add_parser("report")
    r.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
