#!/usr/bin/env python3
"""Performance-regression gate over BENCH_*.json files.

Every bench binary writes its measurements as a JSON array of records
{"workload": str, "agents": int, "ns_per_iter": float, ...extras}.
This script diffs a fresh set of those files against checked-in baselines
(bench/baselines/) and exits non-zero when a workload got slower than the
noise tolerance allows.

Modes:
  strict (default)  compare ns_per_iter per (workload, agents) pair; a fresh
                    value above baseline * (1 + tolerance) is a regression.
                    A baseline record may carry a per-record "tol" key to
                    widen its own tolerance (noisy micro-workloads).
                    Also checks the PAIRED_GATES: within one fresh file,
                    one workload must be faster than another.
  --smoke           portability mode for CI machines whose absolute timings
                    are meaningless: only checks that every baseline record
                    is present in the fresh run with a positive, finite
                    ns_per_iter. No timing comparison.
  --selftest        verifies the gate itself: injects a synthetic slowdown
                    into a copy of a baseline and asserts strict mode flags
                    it, then asserts an identical copy passes.

Typical invocations:
  python3 bench/regress.py --baseline bench/baselines/smoke --fresh build/bench
  python3 bench/regress.py --smoke --baseline bench/baselines/smoke --fresh .
  python3 bench/regress.py --selftest --baseline bench/baselines/smoke
"""

import argparse
import json
import math
import os
import sys

DEFAULT_TOLERANCE = 0.15

# (file, faster, slower): in strict mode the `faster` workload must beat the
# `slower` one in the same fresh file. S=4 shards stepping on parallel lanes
# must beat the sequential S=4 loop. Checked only on hosts with at least 4
# CPUs, and only meaningful for a bench_shard run without
# BDM_PARALLEL_SHARDS (that override makes the sequential legs parallel).
PAIRED_GATES = [("BENCH_shard.json", "shard_par_s4", "shard_s4")]
MIN_CPUS_FOR_PAIRED_GATES = 4


def load_records(path):
    """Returns {(workload, agents): record} for one BENCH_*.json file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    records = {}
    for record in data:
        key = (record.get("workload"), record.get("agents"))
        if key in records:
            # Same workload measured at the same scale twice: keep the
            # faster one (repeat-and-take-best is the usual bench idiom).
            if record.get("ns_per_iter", math.inf) >= records[key].get(
                "ns_per_iter", math.inf
            ):
                continue
        records[key] = record
    return records


def bench_files(path):
    """Returns {basename: full_path} of BENCH_*.json under a dir (or the
    single file itself)."""
    if os.path.isfile(path):
        return {os.path.basename(path): path}
    found = {}
    for name in sorted(os.listdir(path)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            found[name] = os.path.join(path, name)
    return found


def compare_file(name, baseline_path, fresh_path, tolerance, smoke):
    """Returns a list of failure strings for one baseline/fresh file pair."""
    failures = []
    baseline = load_records(baseline_path)
    fresh = load_records(fresh_path)
    for key, base_record in sorted(baseline.items()):
        workload, agents = key
        label = f"{name}: {workload} @ {agents} agents"
        fresh_record = fresh.get(key)
        if fresh_record is None:
            failures.append(f"{label}: missing from fresh run")
            continue
        fresh_ns = fresh_record.get("ns_per_iter")
        if not isinstance(fresh_ns, (int, float)) or not math.isfinite(
            fresh_ns
        ) or fresh_ns <= 0:
            failures.append(f"{label}: bad ns_per_iter {fresh_ns!r}")
            continue
        if smoke:
            continue  # presence + sanity is all smoke mode checks
        base_ns = base_record.get("ns_per_iter", 0)
        if base_ns <= 0:
            continue  # baseline record carries no usable timing
        tol = float(base_record.get("tol", tolerance))
        ratio = fresh_ns / base_ns
        if ratio > 1 + tol:
            failures.append(
                f"{label}: {base_ns:.1f} -> {fresh_ns:.1f} ns/iter "
                f"(+{(ratio - 1) * 100:.1f}%, tolerance {tol * 100:.0f}%)"
            )
    return failures


def compare_pairs(fresh_files):
    """Returns a list of failure strings for the PAIRED_GATES."""
    failures = []
    if (os.cpu_count() or 1) < MIN_CPUS_FOR_PAIRED_GATES:
        return failures
    for name, faster, slower in PAIRED_GATES:
        path = fresh_files.get(name)
        if path is None:
            continue  # the baseline comparison reports the missing file
        by_workload = {key[0]: r for key, r in load_records(path).items()}
        if faster not in by_workload or slower not in by_workload:
            failures.append(f"{name}: needs both {faster} and {slower}")
            continue
        fast_ns = by_workload[faster].get("ns_per_iter", math.inf)
        slow_ns = by_workload[slower].get("ns_per_iter", 0)
        if not fast_ns < slow_ns:
            failures.append(
                f"{name}: {faster} ({fast_ns:.1f} ns/iter) is not faster "
                f"than {slower} ({slow_ns:.1f} ns/iter) in the same run")
    return failures


def run_compare(args):
    base_files = bench_files(args.baseline)
    if not base_files:
        print(f"regress: no BENCH_*.json baselines under {args.baseline}",
              file=sys.stderr)
        return 2
    fresh_files = bench_files(args.fresh)
    failures = []
    compared = 0
    for name, baseline_path in base_files.items():
        fresh_path = fresh_files.get(name)
        if fresh_path is None:
            failures.append(f"{name}: fresh run produced no such file")
            continue
        failures.extend(
            compare_file(name, baseline_path, fresh_path, args.tolerance,
                         args.smoke))
        compared += 1
    if not args.smoke:
        failures.extend(compare_pairs(fresh_files))
    mode = "smoke" if args.smoke else "strict"
    if failures:
        print(f"regress ({mode}): {len(failures)} failure(s) across "
              f"{compared} file(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"regress ({mode}): OK -- {compared} file(s), no regressions")
    return 0


def run_selftest(args):
    """Injects a 20% slowdown into a copy of one baseline and asserts the
    strict gate catches it (and that an identical copy passes)."""
    base_files = bench_files(args.baseline)
    if not base_files:
        print(f"selftest: no baselines under {args.baseline}", file=sys.stderr)
        return 2
    name, path = next(iter(base_files.items()))
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    # Checked-in smoke baselines may carry wide per-record "tol" overrides
    # (toy scales are noisy); the selftest is about the gate mechanism, so
    # it strips them and judges at the strict default tolerance.
    for record in records:
        record.pop("tol", None)
    timed = [r for r in records if r.get("ns_per_iter", 0) > 0]
    if not timed:
        print(f"selftest: {name} has no timed records", file=sys.stderr)
        return 2

    import copy
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stripped = os.path.join(tmp, "base_" + name)
        with open(stripped, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        identical = os.path.join(tmp, name)
        with open(identical, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        ok = compare_file(name, stripped, identical, DEFAULT_TOLERANCE, False)
        if ok:
            print(f"selftest: identical copy flagged as regression: {ok}",
                  file=sys.stderr)
            return 1

        slowed = copy.deepcopy(records)
        for record in slowed:
            if record.get("ns_per_iter", 0) > 0:
                record["ns_per_iter"] *= 1.20
        slow_path = os.path.join(tmp, "slow_" + name)
        with open(slow_path, "w", encoding="utf-8") as fh:
            json.dump(slowed, fh)
        caught = compare_file(name, stripped, slow_path, DEFAULT_TOLERANCE,
                              False)
        if len(caught) != len(timed):
            print(
                f"selftest: expected {len(timed)} regressions from a 20% "
                f"slowdown of {name}, gate reported {len(caught)}",
                file=sys.stderr)
            return 1
    print(f"selftest: OK -- gate passes identical data and catches a 20% "
          f"slowdown ({len(timed)} records, {name})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baselines/smoke",
                        help="baseline BENCH_*.json file or directory")
    parser.add_argument("--fresh", default=".",
                        help="fresh BENCH_*.json file or directory")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative ns_per_iter slack (default 0.15)")
    parser.add_argument("--smoke", action="store_true",
                        help="presence/sanity checks only, no timing diff")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate catches an injected slowdown")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(run_selftest(args))
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
