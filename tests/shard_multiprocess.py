#!/usr/bin/env python3
"""Multi-process shard equivalence check.

Launches bdm_shard_worker as two OS processes wired together by a
SocketShardTransport mesh over unix-domain sockets, stitches their per-rank
output files back together, and requires the result to be BITWISE identical
to a single-process reference run of the same partition (same --shards, so
the spatial decomposition -- and therefore the physics -- is the same; only
the process boundary moves). Every value is printed as %a hex, so "equal"
means equal down to the last mantissa bit.

Each rank steps its two local shards concurrently on DagExecutor lanes, as
the single-process run steps its four, so the check covers the socket
transport and the lane stepper composed.

Usage: shard_multiprocess.py <path-to-bdm_shard_worker>
"""

import os
import subprocess
import sys
import tempfile

TIMEOUT_SECONDS = 180

WORKLOAD = [
    "--shards=4",
    "--agents=300",
    "--iterations=8",
    "--resolution=16",
    "--threads=2",
    "--secrete",
]


def run_rank(worker, extra):
    return subprocess.Popen(
        [worker] + WORKLOAD + extra,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def wait_all(procs, context):
    failed = False
    for proc in procs:
        try:
            _, stderr = proc.communicate(timeout=TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            for p in procs:
                p.kill()
            raise SystemExit(f"{context}: worker timed out after "
                             f"{TIMEOUT_SECONDS}s: {proc.args}")
        if proc.returncode != 0:
            sys.stderr.write(stderr.decode(errors="replace"))
            print(f"{context}: worker exited {proc.returncode}: {proc.args}")
            failed = True
    if failed:
        raise SystemExit(f"{context}: FAILED")


def read_sorted(paths):
    lines = []
    for path in paths:
        with open(path) as f:
            lines.extend(f.read().splitlines())
    return sorted(lines)


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    worker = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="bdm_mp_") as tmp:
        ref_out = os.path.join(tmp, "ref.txt")
        ref = run_rank(worker, ["--ranks=1", "--rank=0", f"--out={ref_out}"])
        wait_all([ref], "reference")
        reference = read_sorted([ref_out])
        if not reference:
            raise SystemExit("reference run produced no output")

        sock_dir = os.path.join(tmp, "sock")
        os.mkdir(sock_dir)
        outs = [os.path.join(tmp, f"rank{r}.txt") for r in range(2)]
        ranks = [
            run_rank(
                worker,
                ["--ranks=2", f"--rank={r}", f"--socket-dir={sock_dir}",
                 f"--out={outs[r]}"],
            )
            for r in range(2)
        ]
        wait_all(ranks, "2-rank")
        stitched = read_sorted(outs)
        if stitched != reference:
            diff = [(a, b) for a, b in zip(reference, stitched) if a != b]
            print(f"{len(reference)} reference lines, {len(stitched)} "
                  f"stitched lines, {len(diff)} differing pairs")
            for a, b in diff[:10]:
                print(f"  ref: {a}\n  got: {b}")
            raise SystemExit("stitched 2-rank output differs from "
                             "single-process reference")
        print("2-rank output bitwise-identical to reference "
              f"({len(reference)} lines)")

    print("OK")


if __name__ == "__main__":
    main()
