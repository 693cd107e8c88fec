#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON report against a checked-in
baseline and fail on throughput regressions.

Usage:
    compare_bench.py BASELINE.json FRESH.json
        [--max-regression 0.25] [--normalize] [--filter REGEX]

Benchmarks are matched by name; the metric is items_per_second when
present, else 1/real_time. Only names present in both reports are
compared (CI smoke runs use --benchmark_filter subsets). An empty
matched set is a hard error (exit 2, names present in only one report
listed) so fixture renames cannot turn the gate vacuously green;
entries dropped for lacking a usable metric are reported to stderr.

--normalize divides each benchmark's fresh/baseline ratio by the median
ratio across all matched benchmarks before applying the threshold.
Baselines are recorded on a developer machine while CI runs on shared
runners of a different speed; the median ratio captures that global
machine factor, so only *relative* regressions (one benchmark slowing
down against the rest of the suite) trip the gate.

Exit status: 0 when no benchmark regressed beyond the threshold,
1 otherwise, 2 for usage/data errors.
"""

import argparse
import json
import re
import statistics
import sys


def check_build_type(path, report):
    """Reject reports recorded from a non-release build.

    A debug-build baseline makes every later release run look faster
    than it is (and vice versa), silently absorbing real regressions
    into the build-type delta. The bench binaries stamp `qla_build_type`
    into the report context; anything other than "release" is a data
    error. Older reports carry the stamp as a second `library_build_type`
    key next to google-benchmark's own (the benchmark library's build),
    so only its last value is ours; they are read with a warning until
    re-recorded. Reports predating any stamp only get a warning.
    """
    context = report.get("context", {})
    build_type = context.get("qla_build_type")
    if build_type is None:
        build_type = context.get("library_build_type")
        if build_type is None:
            print(f"warning: {path}: context lacks qla_build_type "
                  "(recorded before the build-type stamp?)",
                  file=sys.stderr)
            return
        print(f"warning: {path}: context lacks qla_build_type; reading "
              "the legacy library_build_type stamp (re-record the file)",
              file=sys.stderr)
    if build_type != "release":
        print(f"error: {path}: recorded from a {build_type!r} build; "
              "benchmark comparisons require release builds",
              file=sys.stderr)
        raise SystemExit(2)


def load_metrics(path):
    """Benchmark name -> throughput metric for one report.

    Entries without a usable metric (no items_per_second and a zero or
    missing real_time) are reported to stderr rather than silently
    dropped: a dropped entry is coverage the perf gate no longer sees.
    """
    with open(path) as fh:
        report = json.load(fh)
    check_build_type(path, report)
    metrics = {}
    skipped = []
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None:
            skipped.append("<unnamed entry>")
            continue
        if "items_per_second" in bench:
            metrics[name] = float(bench["items_per_second"])
        elif bench.get("real_time"):
            metrics[name] = 1.0 / float(bench["real_time"])
        else:
            skipped.append(name)
    for name in skipped:
        print(f"warning: {path}: skipping {name} (no items_per_second "
              "and zero/missing real_time)", file=sys.stderr)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum allowed fractional throughput loss"
                             " (default 0.25)")
    parser.add_argument("--normalize", action="store_true",
                        help="divide ratios by their median to remove the"
                             " machine-speed factor")
    parser.add_argument("--filter", default=None,
                        help="only compare benchmark names matching this"
                             " regex")
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    fresh = load_metrics(args.fresh)
    names = sorted(set(baseline) & set(fresh))
    if args.filter:
        pattern = re.compile(args.filter)
        names = [n for n in names if pattern.search(n)]
    if not names:
        # An empty matched set must be a hard failure: if fixture
        # renames left no common names, every comparison below would be
        # vacuously green while the gate checks nothing. List the
        # one-sided names so the rename is obvious from the CI log.
        print("error: no matching benchmarks between "
              f"{args.baseline} and {args.fresh}"
              + (f" (filter: {args.filter!r})" if args.filter else ""),
              file=sys.stderr)
        for name in sorted(set(baseline) - set(fresh)):
            print(f"  only in baseline: {name}", file=sys.stderr)
        for name in sorted(set(fresh) - set(baseline)):
            print(f"  only in fresh:    {name}", file=sys.stderr)
        return 2

    ratios = {n: fresh[n] / baseline[n] for n in names
              if baseline[n] > 0}
    if not ratios:
        print("error: baseline throughputs are all zero",
              file=sys.stderr)
        return 2

    scale = statistics.median(ratios.values()) if args.normalize else 1.0
    if scale <= 0:
        print("error: non-positive median ratio", file=sys.stderr)
        return 2

    floor = 1.0 - args.max_regression
    failed = []
    print(f"{'benchmark':55s} {'baseline':>12s} {'fresh':>12s} "
          f"{'ratio':>7s}")
    for name in names:
        if name not in ratios:
            print(f"{name:55s} {baseline[name]:12.4g} "
                  f"{fresh[name]:12.4g}    (skipped: zero baseline)")
            continue
        ratio = ratios[name] / scale
        flag = ""
        if ratio < floor:
            failed.append(name)
            flag = "  << REGRESSION"
        print(f"{name:55s} {baseline[name]:12.4g} {fresh[name]:12.4g} "
              f"{ratio:7.3f}{flag}")
    if args.normalize:
        print(f"(machine-speed factor from median ratio: {scale:.3f})")

    if failed:
        print(f"\n{len(failed)} benchmark(s) regressed more than "
              f"{args.max_regression:.0%}:", file=sys.stderr)
        for name in failed:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(names)} benchmark(s) within "
          f"{args.max_regression:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
