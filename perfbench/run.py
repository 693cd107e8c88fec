#!/usr/bin/env python3
"""Build and run the QLA simulator benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload fig7-window --seed 1 \
        --seconds 30 --trace 0

builds perfbench/ (and the library from ../src) as a Release build
under $CARGO_TARGET_DIR (default .bench_build), in a directory named
after this checkout's path so that two checkouts sharing one
$CARGO_TARGET_DIR never share a build, runs one workload, and
prints the result as the last line of standard output: a JSON object
with the keys correct, attempted, failed and metrics. Untraced runs
(--trace 0) report the end-to-end metrics, traced runs (--trace 1) the
per-layer metrics. The binary's path, the environment stamp and a
table of every metric with its unit and sample count go to standard
error.

Other modes:

    python3 perfbench/run.py --all [--seconds S]   every workload, untraced
    python3 perfbench/run.py --selftest            checks trip on corrupted
                                                   results; every workload
                                                   at its smallest size
                                                   emits exactly the metric
                                                   names of BENCHMARK.json
                                                   (serve-queue: plus its
                                                   own serve.* list)

Exit status: 0 when every check passed; non-zero on a failed check, a
failed build, a non-Release build or a refused worker count.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig7-window", "fig7-tail", "cosim-mesh", "serve-queue"]
# A run measures for --seconds; set-up, warm-up and the post-run checks
# add a few seconds more. Stay inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    """The build directory of this checkout: a CMake cache records the
    source directory it was configured from, so each checkout gets its
    own directory even when CARGO_TARGET_DIR is shared."""
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(os.path.abspath(base), "perfbench-" + key)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    for needed in ("src", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the library sources are missing (%s not found next to "
                 "perfbench/)" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "qla_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    binary = os.path.join(out, "qla_perfbench")
    print("perfbench binary: %s (sources %s)" % (binary, ROOT),
          file=sys.stderr)
    return binary


def run_binary(binary, args, quiet=False):
    """Run the binary; returns (exit code, result line, parsed result).

    The line is kept verbatim so every digit the binary printed reaches
    the caller unchanged. With @quiet the binary's standard error is
    shown only when the run fails."""
    out_dir = os.path.join(build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary] + args + ["--out-dir", out_dir],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if quiet else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    if proc.returncode < 0:
        print("perfbench: %s crashed with signal %d" %
              (" ".join(args[:2]), -proc.returncode), file=sys.stderr)
    if quiet and proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    line = lines[-1] if lines else ""
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    return proc.returncode, line, result


def run_args(workload, seed, seconds, trace, workers):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if workers:
        args += ["--workers", str(workers)]
    return args


def selftest(binary):
    failures = 0
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        failures += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # serve-queue is checked too although BENCHMARK.json does not list
    # it yet (see README.md: it crashes on a known serve-layer race). Its
    # traced run adds the serve.* metrics the binary lists.
    serve_metrics = dict(line.split() for line in subprocess.run(
        [binary, "--serve-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout.splitlines())
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            if name == "serve-queue" and trace == 1:
                expected.update(serve_metrics)
            code, _, result = run_binary(
                binary, run_args(name, 1, 1, trace, 0), quiet=True)
            problems = []
            if code != 0 or result is None or not result.get("correct"):
                problems.append("run failed or a check failed")
                if name == "serve-queue" and code < 0:
                    problems.append("known defect: unlocked growth in "
                                    "serve::SweepCaches::workerCache "
                                    "(README.md)")
            else:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                for metric in sorted(set(expected) | set(got)):
                    if expected.get(metric) != got.get(metric):
                        problems.append("%s: expected unit %s, emitted %s"
                                        % (metric, expected.get(metric),
                                           got.get(metric)))
            print("selftest %-13s trace=%d metrics %s" %
                  (name, trace, "ok" if not problems else "FAILED"),
                  file=sys.stderr)
            for problem in problems:
                print("    " + problem, file=sys.stderr)
            failures += bool(problems)
    print("selftest: %s" % ("passed" if not failures else
                            "%d failed" % failures), file=sys.stderr)
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="scheduler workers (default: usable hardware "
                             "threads; more is refused)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("one of --workload, --all or --selftest is required")

    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    if args.all:
        status = 0
        for workload in WORKLOADS:
            print("== %s" % workload, file=sys.stderr)
            code, line, result = run_binary(binary, run_args(
                workload, args.seed, args.seconds, 0, args.workers))
            status = status or code or (result is None)
            if result is not None:
                print('{"workload": "%s", %s' % (workload, line[1:]))
        sys.exit(1 if status else 0)

    code, line, result = run_binary(binary, run_args(
        args.workload, args.seed, args.seconds, args.trace, args.workers))
    if result is None:
        fail("the run printed no result (exit status %d)" % code, code or 1)
    print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
