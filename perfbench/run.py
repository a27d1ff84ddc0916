#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 10 --trace 0

Builds perfbench_driver (and the gir libraries it links) from source into
.bench_build/perfbench on first use, runs it, and prints the driver's
output: a context line (host load, nproc, source identity, compiler, ISA),
then the result as one JSON object on the last line. --trace 1 runs the
traced replay instead and writes its spans to
.bench_build/perfbench-traces/<workload>-seed<seed>.jsonl. See README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("cold_read", "hot_read", "durable_churn", "routed")
# A run must end within 180 s; the driver's own work takes well under 60 s.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the gir sources (src/) are missing next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "perfbench_driver"])
        for step in steps:
            # Build output goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_steal_s():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    info = subprocess.run([DRIVER, "--info"], capture_output=True, text=True,
                          timeout=30)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
        "cpu_steal_s": cpu_steal_s(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }
    if info.returncode == 0:
        context.update(json.loads(info.stdout))

    work = os.path.join(BUILD_ROOT, "perfbench-work")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    context["loadavg_end"] = os.getloadavg()
    # Time stolen from this guest during the run: a contaminated run shows.
    context["cpu_steal_s"] = round(cpu_steal_s() - context["cpu_steal_s"], 2)

    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("driver exited with code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    print("context " + json.dumps(context))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
