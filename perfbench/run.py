#!/usr/bin/env python3
"""Builds and runs the end-to-end trigger benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload memory_selection --seed 1 \
        --seconds 15 --trace 0

builds perfbench/ (and the engine sources it compiles) as a Release build
in .bench_build/, runs one measurement and prints the benchmark's JSON
result as the last line of standard output.

Steadiness mode runs one workload repeatedly on successive seeds and
prints, per metric, the median and the spread (interquartile range over
median) of the values:

    python3 perfbench/run.py --steady 10 --workload durable_mixed \
        --seconds 15
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "trigger_bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release binary; exits non-zero on
    failure. A lock file serializes concurrent invocations."""
    if not (ROOT / "src" / "core" / "trigger_manager.h").is_file():
        log("run.py: engine sources (src/) not found beside perfbench/")
        sys.exit(2)
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generator = ["-G", "Ninja"] if _have("ninja") else []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            _run_build_step(["cmake", "-S", str(BENCH_DIR), "-B",
                             str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
                            + generator)
        _run_build_step(["cmake", "--build", str(BUILD_DIR), "--target",
                         "trigger_bench", "--parallel",
                         str(os.cpu_count() or 1)])


def _have(program):
    return any((Path(p) / program).is_file()
               for p in os.environ.get("PATH", "").split(os.pathsep) if p)


def _run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        log("run.py: build step failed: " + " ".join(cmd))
        sys.exit(2)


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        return 2, []
    return proc.returncode, proc.stdout.splitlines()


def steady(args):
    """Repeats one workload on seeds seed, seed+1, ... and reports each
    metric's median and interquartile spread over median."""
    values = {}
    units = {}
    for i in range(args.steady):
        seed = args.seed + i
        started = time.monotonic()
        code, lines = run_once(args.workload, seed, args.seconds, args.trace)
        elapsed = time.monotonic() - started
        if code != 0 or not lines:
            log(f"run.py: seed {seed} failed (exit {code})")
            sys.exit(1)
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        settings = next((json.loads(line[len("settings "):])
                         for line in lines if line.startswith("settings ")),
                        {})
        log(f"seed {seed} ({elapsed:.1f} s, steal % "
            f"{settings.get('steal_pct')}): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    print(f"{'metric':36} {'unit':6} {'median':>12} {'spread':>8}  runs={args.steady}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
        else:
            spread = 0.0
        flag = "  > 0.10" if spread > 0.10 else ""
        print(f"{name:36} {units[name]:6} {med:12.5g} {spread:8.3f}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="steadiness mode: run RUNS seeds, print spreads")
    args = parser.parse_args()

    build()
    if args.steady:
        steady(args)
        return
    code, lines = run_once(args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
