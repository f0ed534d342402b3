#!/usr/bin/env python3
"""Builds and runs mecbench, the MEC-CDN stack's benchmark.

Run from the root of a source checkout:

    python3 mecbench/run.py --workload sim-mec-dns --seed 1 --seconds 10 --trace 0

The first run configures and builds the repository's libraries, the
mecdns_livewire server, bench_throughput and the mecbench binary (CMake,
Release) into .bench_build/; later runs only re-check the build. Build output
goes to stderr. The binary's stdout is passed through; its last line is the
JSON result. The exit code is the binary's: 0 when every answer was right,
1 on a wrong answer, 2 on a usage, build or set-up error.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim-mec-dns", "sim-split-fetch", "live-udp")
# Sources the benchmark builds besides its own directory.
REQUIRED = ("src/CMakeLists.txt", "tools/mecdns_livewire.cc", "bench/bench_throughput.cc")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"mecbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("not a source checkout, missing: " + ", ".join(missing))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs (self-check)")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    cmd = [os.path.join(BUILD, "mecbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "mecbench-out"),
           "--livewire", os.path.join(BUILD, "mecdns_livewire")]
    if args.small:
        cmd.append("--small")
    # Its own process group, so the servers it spawns go with it if it dies.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        fail(f"mecbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
