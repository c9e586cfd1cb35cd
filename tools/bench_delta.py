#!/usr/bin/env python3
"""Bench regression gate, run in CI after the release bench leg.

Compares a freshly generated bench_table2 JSON report against the
committed baseline (BENCH_table2.json) and fails when the trap-vs-RPC
ratio regresses: the paper's headline microbenchmark is how much a
32-byte cross-task RPC costs relative to a bare kernel trap, and the
zero-copy / bulk-transfer work must not quietly make the common small
RPC slower. A drift of more than --tolerance (default 2%) above the
committed ratio is a failure; getting *faster* is always fine.

The simulator is deterministic, so the measured cycle counts are exact
and the tolerance only has to absorb intentional, committed cost-model
changes (which should update the baseline in the same change).

With --ablations, additionally gates the overload ablation (A5), the
client-side FS-cache ablation (A6) and the mapped-file ablation (A7)
from a bench_ablations JSON report: at every overloaded multiplier the
bounded port must actually shed, must at least halve the unbounded p99
queue wait, and must keep goodput above half of the unbounded run's;
the cached file client must cut RPCs per file-intensive op by at least
2x versus uncached; and a mapped sequential pass must cut server RPCs
per page-sized op by at least 4x versus uncached read() calls. These
mirror the WPOS_CHECKs inside the bench binary, but as an independent
CI gate they still hold if someone weakens the in-binary asserts.

With --exact FRESH=BASELINE (repeatable), additionally requires the fresh
report to equal the committed one byte for byte. Simulated bench output is
deterministic, so a Release build reproduces every committed BENCH_*.json
exactly; any difference means a simulated number moved. A refactor that
claims "same numbers" is held to that, and a change that moves a number on
purpose must re-baseline the file in the same change.

Usage:
  tools/bench_delta.py --fresh bench_table2.json \
      [--baseline BENCH_table2.json] [--tolerance 0.02] \
      [--ablations ablations.json]
  tools/bench_delta.py --exact bench_table1.json=BENCH_table1.json \
      --exact bench_table2.json=BENCH_table2.json

Exit status: 0 when every gate holds, 1 on regression, missing keys or an
inexact report.
"""

import argparse
import difflib
import itertools
import json
import sys


def ratio(report, label):
    """RPC-over-trap cycle ratio from one bench_table2 JSON report."""
    try:
        rpc = report["rpc32.cycles"]["measured"]
        trap = report["trap.cycles"]["measured"]
    except KeyError as missing:
        raise SystemExit(f"{label}: missing key {missing} in bench report")
    if trap <= 0:
        raise SystemExit(f"{label}: non-positive trap.cycles.measured ({trap})")
    return rpc / trap


def check_ablations(path):
    """Overload-ablation (A5) invariants from a bench_ablations report.

    Returns a list of failure strings (empty when every gate holds).
    """
    with open(path) as f:
        report = json.load(f)

    def measured(key):
        try:
            return report[key]["measured"]
        except KeyError:
            raise SystemExit(f"{path}: missing key {key!r} in ablations report")

    failures = []
    for mult in (4, 16):
        prefix = f"overload.x{mult}"
        sheds = measured(f"{prefix}.bounded.sheds")
        bounded_p99 = measured(f"{prefix}.bounded.p99_queue_wait_cycles")
        unbounded_p99 = measured(f"{prefix}.unbounded.p99_queue_wait_cycles")
        bounded_gp = measured(f"{prefix}.bounded.goodput_ops_per_ms")
        unbounded_gp = measured(f"{prefix}.unbounded.goodput_ops_per_ms")
        if sheds <= 0:
            failures.append(f"{prefix}: bounded queue shed nothing at overload")
        # 1% slack: the report rounds to 6 significant figures, and the
        # histogram's power-of-two bucket bounds sit right on the 2x edge.
        if bounded_p99 * 2 > unbounded_p99 * 1.01:
            failures.append(
                f"{prefix}: bound failed to halve the p99 queue wait "
                f"({bounded_p99:.0f} vs {unbounded_p99:.0f} cycles)")
        if bounded_gp < 0.5 * unbounded_gp:
            failures.append(
                f"{prefix}: shedding collapsed goodput "
                f"({bounded_gp:.2f} vs {unbounded_gp:.2f} ops/ms)")
        print(f"{prefix}: sheds {sheds:.0f}, p99 {bounded_p99:.0f} vs "
              f"{unbounded_p99:.0f} cycles, goodput {bounded_gp:.2f} vs "
              f"{unbounded_gp:.2f} ops/ms")

    # A6: the client-side FS cache must at least halve cross-server RPC
    # traffic on the file-intensive loop (and cached must never be worse).
    uncached = measured("fscache.uncached.rpcs_per_op")
    cached = measured("fscache.cached.rpcs_per_op")
    if cached <= 0:
        failures.append("fscache: non-positive cached rpcs_per_op")
    elif uncached < 2 * cached:
        failures.append(
            f"fscache: cache cut RPCs/op only {uncached / cached:.2f}x "
            f"({uncached:.2f} -> {cached:.2f}), below the 2x gate")
    print(f"fscache: {uncached:.2f} RPCs/op uncached vs {cached:.2f} cached "
          f"({uncached / max(cached, 1e-9):.1f}x)")

    # A7: mapped sequential reads must collapse per-read RPCs into per-batch
    # pager fills — at least 4x fewer server RPCs per page-sized op than the
    # uncached read() pass over the same file.
    read_rpcs = measured("mmap.read.rpcs_per_op")
    mapped_rpcs = measured("mmap.mapped.rpcs_per_op")
    if mapped_rpcs <= 0:
        failures.append("mmap: non-positive mapped rpcs_per_op")
    elif read_rpcs < 4 * mapped_rpcs:
        failures.append(
            f"mmap: mapped pass cut RPCs/op only {read_rpcs / mapped_rpcs:.2f}x "
            f"({read_rpcs:.2f} -> {mapped_rpcs:.2f}), below the 4x gate")
    print(f"mmap: {read_rpcs:.2f} RPCs/op read() vs {mapped_rpcs:.2f} mapped "
          f"({read_rpcs / max(mapped_rpcs, 1e-9):.1f}x)")
    return failures


def check_exact(pairs):
    """Byte-for-byte comparison of fresh reports against committed ones.

    `pairs` holds FRESH=BASELINE strings. Returns a list of failure strings
    (empty when every fresh report equals its baseline).
    """
    failures = []
    for pair in pairs:
        fresh_path, sep, baseline_path = pair.partition("=")
        if not sep or not fresh_path or not baseline_path:
            raise SystemExit(f"--exact wants FRESH=BASELINE, got {pair!r}")
        with open(fresh_path, "rb") as f:
            fresh = f.read()
        with open(baseline_path, "rb") as f:
            baseline = f.read()
        if fresh == baseline:
            print(f"{fresh_path}: byte-identical to {baseline_path}")
            continue
        diff = difflib.unified_diff(
            baseline.decode(errors="replace").splitlines(),
            fresh.decode(errors="replace").splitlines(),
            baseline_path, fresh_path, lineterm="", n=0)
        for line in itertools.islice(diff, 40):
            print(line)
        failures.append(
            f"{fresh_path} differs from {baseline_path}: a simulated number "
            f"moved; if that is intended, regenerate and commit {baseline_path}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default=None,
                        help="bench_table2 --json output from this build")
    parser.add_argument("--baseline", default="BENCH_table2.json",
                        help="committed baseline report (default: %(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed relative regression (default: %(default)s)")
    parser.add_argument("--ablations", default=None,
                        help="bench_ablations --json output to gate the "
                             "overload ablation (A5) as well")
    parser.add_argument("--exact", action="append", default=[],
                        metavar="FRESH=BASELINE",
                        help="require FRESH to equal the committed BASELINE "
                             "byte for byte (repeatable)")
    args = parser.parse_args()
    if args.fresh is None and not args.exact:
        parser.error("give --fresh, --exact, or both")
    if args.ablations and args.fresh is None:
        parser.error("--ablations needs --fresh")

    if args.exact:
        failures = check_exact(args.exact)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: bench reports reproduce the committed baselines exactly")
    if args.fresh is None:
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    base = ratio(baseline, args.baseline)
    now = ratio(fresh, args.fresh)
    drift = (now - base) / base
    print(f"trap-vs-RPC ratio: baseline {base:.4f}, fresh {now:.4f}, "
          f"drift {drift:+.2%} (tolerance +{args.tolerance:.0%})")
    if drift > args.tolerance:
        print("FAIL: small-RPC cost regressed past tolerance; if the change "
              "is intentional, regenerate and commit BENCH_table2.json",
              file=sys.stderr)
        return 1
    print("OK: within tolerance")
    if args.ablations:
        failures = check_ablations(args.ablations)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: overload + fs-cache + mmap ablation gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
