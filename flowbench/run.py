#!/usr/bin/env python3
"""Builds and runs the Bestagon flow benchmark.

Run from the root of a checkout:

    python3 flowbench/run.py --workload <table1|pnr|signoff|yield> \
        --seed N --seconds S --trace 0|1
    python3 flowbench/run.py --smoke

The first call configures and builds `flowbench` (Release) into
`.bench_build/`; later calls only re-check the build. Untraced runs print the
end-to-end metrics of BENCHMARK.json, traced runs its per-layer metrics and
write their spans to `.bench_build/trace-<workload>-<seed>.json` (Chrome
trace-event JSON, opens in Perfetto or chrome://tracing). The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Build output goes to standard error.

`setup_s` is the time from process start until the first item is
submitted: the driver is started SETUP_SAMPLES times in set-up-only mode and
once for the measured run, and the median of those start-up times is
reported.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "flowbench")
DATA = os.path.join(HERE, "data")

SETUP_SAMPLES = 14
RUN_TIMEOUT_S = 170
WORKLOADS = ("table1", "pnr", "signoff", "yield")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    command = ["cmake", "--build", BUILD, "--target", "flowbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def run_driver(args, echo):
    """Runs the driver to completion; returns its start-up time in s (process
    start until it reports that set-up is done) and its output lines. A
    driver still running after RUN_TIMEOUT_S is killed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([BINARY, "--data", DATA] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    startup = None
    lines = []
    for line in proc.stdout:
        if startup is None and line.startswith("ready "):
            startup = time.perf_counter() - t0
        lines.append(line)
        if echo:
            print(line, end="", flush=True)
    code = proc.wait()
    watchdog.cancel()
    if code != 0 or startup is None or not lines:
        fail(f"driver exited with code {code}")
    return startup, lines


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick check of every workload and of the frozen inputs")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.smoke:
        proc = subprocess.run([BINARY, "--data", DATA, "--smoke"], cwd=ROOT)
        sys.exit(proc.returncode)

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            seconds, _ = run_driver(["--workload", args.workload, "--setup-only"], echo=False)
            setup.append(seconds)
    else:
        trace_file = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
        run_args += ["--trace-file", trace_file]
    seconds, lines = run_driver(run_args, echo=True)
    setup.append(seconds)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the driver's last line is not a JSON result")

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print(f"{'setup_s':48} {statistics.median(setup):16.6f} s "
              f"(median of {len(setup)} starts)")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
