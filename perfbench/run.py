#!/usr/bin/env python3
"""Builds and runs one workload of the DataVisT5 serving benchmark.

    python3 perfbench/run.py --workload dv_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own unit tests

Run from the repository root. The repository's libraries are built with
its own CMake project into .bench_build/vist5, the harness against them
into .bench_build/perfbench; both builds are incremental. The last line of
standard output is the result object (see README.md); build logs and the
human-readable report go to standard error.

setup_s is the median over SETUP_PROCESSES fresh processes: each is timed
from its spawn until its first request could be sent, the measured run's
own set-up being one of them.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "vist5"
HARNESS_BUILD = BUILD / "perfbench"
WORKLOADS = ("dv_mix", "batch_decode", "mixed_wire")
# Threads of the program's parallel runtime. Pinned so every run and every
# host measures the same configuration; 2 rather than all of a 4-vCPU
# host's cores keeps the pool's region barrier off a vCPU the hypervisor
# has stolen (README.md, "Threads").
THREADS = "2"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
SETUP_PROCESSES = 9
SETUP_TIMEOUT_S = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(args, log):
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=BUILD_TIMEOUT_S)
    log.append(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write("".join(log)[-6000:])
        fail("build failed: " + " ".join(str(a) for a in args))


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {HERE.name}/ (expected {ROOT}/src)")
    jobs = str(min(4, os.cpu_count() or 1))
    log = []
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], log)
    run_build_step(["cmake", "--build", str(LIB_BUILD), "-j", jobs,
                    "--target", "vist5_serve", "vist5_core"], log)
    if not (HARNESS_BUILD / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", str(HERE), "-B", str(HARNESS_BUILD),
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DVIST5_BUILD_DIR={LIB_BUILD}"], log)
    run_build_step(["cmake", "--build", str(HARNESS_BUILD), "-j", jobs,
                    "--target", *targets], log)


def child_env():
    env = dict(os.environ)
    env["VIST5_THREADS"] = THREADS
    # These turn on the program's own exporters and latency sampling; the
    # benchmark measures the program without them.
    for name in ("VIST5_METRICS_OUT", "VIST5_TRACE_OUT", "VIST5_METRICS_FLUSH_MS"):
        env.pop(name, None)
    return env


def spawned(cmd):
    """`cmd` told when it was spawned, on the clock set-up time is read on."""
    return cmd + ["--spawn-ns", str(time.monotonic_ns())]


def setup_seconds(cmd):
    """Set-up time of one fresh process that only sets up."""
    proc = subprocess.run(spawned(cmd + ["--setup-only", "1"]),
                          stdout=subprocess.PIPE, env=child_env(), text=True,
                          timeout=SETUP_TIMEOUT_S)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "setup_s":
        fail("a set-up process failed")
    return float(lines[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.test:
        build(["perfbench_test"])
        proc = subprocess.run([str(HARNESS_BUILD / "perfbench_test")],
                              env=child_env(), timeout=RUN_TIMEOUT_S)
        sys.exit(proc.returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench"])
    cache = ["--cache-dir", str(BUILD / "perfbench-cache")]
    prepare = subprocess.run([str(HARNESS_BUILD / "perfbench"), "--workload",
                              args.workload, "--prepare", "1", *cache],
                             stdout=sys.stderr, env=child_env(),
                             timeout=BUILD_TIMEOUT_S)
    if prepare.returncode != 0:
        fail("preparing the workload's inputs failed")
    cmd = [str(HARNESS_BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *cache]
    setups = []
    if not args.trace:
        setups = [setup_seconds(cmd) for _ in range(SETUP_PROCESSES - 1)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / "perfbench-traces" / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(spawned(cmd), stdout=subprocess.PIPE, env=child_env(),
                          text=True, timeout=RUN_TIMEOUT_S)
    out = proc.stdout.splitlines()
    if proc.returncode == 0 and setups:
        result = json.loads(out[-1])
        own = result["metrics"]["setup_s"]["value"]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups + [own])
        print(f"perfbench: setup_s of {len(setups) + 1} processes: "
              + " ".join(f"{v:.4f}" for v in setups + [own]), file=sys.stderr)
        out[-1] = json.dumps(result)
    sys.stdout.write("".join(line + "\n" for line in out))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
