#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload clustering --seed 1 --seconds 25 \
        --trace 0

Builds the engine and the benchmark driver from source into .bench_build/
(CMake, RelWithDebInfo -- the engine's default build type), runs the driver
with the engine's BDM_* environment overrides removed and one glibc malloc
arena, and passes its output through. The last stdout line is the driver's
JSON result. With --trace 1 the span trace is also written to
.bench_build/traces/ in the Trace Event Format (load it in Perfetto).

Exits non-zero without printing a result when the build fails (for example
when the engine sources next to this directory are missing) or the driver
does not finish in time.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "bdm_perfbench")
# A run must end within 180 s (the first one in a checkout may also build);
# a no-op build takes about a second, so this leaves room to stop cleanly.
DRIVER_TIMEOUT_S = 165


def build(log):
    """Configures (once) and builds the driver; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(len(os.sched_getaffinity(0)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                return False
    return os.path.exists(DRIVER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build(sys.stderr):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("BDM_")}
    # One glibc malloc arena: with per-thread arenas the resident high-water
    # mark jumps by ~25% on some runs of the same seed (clustering: 91 MiB
    # typical, 115 MiB outliers); with one it repeats within 1%, at the same
    # throughput.
    env["MALLOC_ARENA_MAX"] = "1"
    # Own process group: the driver forks set-up children, and a timeout
    # must stop them too.
    driver = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 1

    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if driver.returncode != 0 or not valid:
        sys.stderr.write(stdout)
        print("perfbench: driver failed (exit %d)" % driver.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
