#!/usr/bin/env python3
"""Determinism self-check of the end-to-end benchmark.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seconds S]

For each workload it checks, with short runs laid out as run.py lays them:
  1. the same seed twice gives identical simulated statistics, for WPOS
     and for mono;
  2. a traced WPOS run has exactly the untraced simulated statistics;
  3. WPOS run with no mono processes in between is identical to WPOS taking
     turns with mono (each system's numbers do not depend on the other);
  4. a second seed keeps every simulated end-to-end metric within the
     bound BENCHMARK.json gives it.
It also reports, without failing, whether WPOS changes when it shares a
process with mono: the code layout is placed in first-execution order for
the whole process, which is why run.py gives each system its own processes.
Exits 0 when every check holds.
"""
import argparse
import json
import os
import sys

import run

SIMULATED = ["wpos_sim_ms", "mono_sim_ms", "wpos_op_p50_us", "wpos_op_p99_us"]


def check_workload(workload, seconds, bounds):
    calls, episodes = run.window_plan(workload, seconds)
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(f"  [{'ok' if cond else 'FAIL'}] {what}")
        ok = ok and cond

    print(f"{workload}: {episodes} episodes x {calls} calls")
    w1, m1, t1 = run.run_all(workload, 1, calls, episodes, trace=True)
    w2, m2, _ = run.run_all(workload, 1, calls, episodes, trace=False)
    expect(w1["sim"] == w2["sim"], "seed 1 twice: WPOS simulated statistics identical")
    expect(m1["sim"] == m2["sim"], "seed 1 twice: mono simulated statistics identical")
    expect(w1["failed"] == 0 and m1["failed"] == 0, "no failed calls")
    expect(t1["sim"] == w1["sim"], "traced WPOS simulated statistics == untraced")

    alone = run.merge([r for first, count in run.process_plan(episodes)
                       for r in run.run_system("wpos", workload, 1, calls, count, first=first)])
    expect(alone["sim"] == w1["sim"], "WPOS run with no mono processes in between == "
           "WPOS taking turns with mono")

    w3, m3, _ = run.run_all(workload, 2, calls, episodes, trace=False)
    a = run.end_to_end(w1, m1)
    b = run.end_to_end(w3, m3)
    for name in SIMULATED:
        change = abs(b[name][0] - a[name][0]) / a[name][0]
        expect(change <= bounds[name], f"seed 2 vs seed 1: {name} moves {change:.4%} "
               f"(bound {bounds[name]:.0%})")

    single = run.merge(run.run_system("wpos", workload, 1, calls, episodes))
    shared = run.merge(run.run_system("mono+wpos", workload, 1, calls, episodes)[1:])
    print(f"  [info] all episodes in one process: WPOS after mono "
          f"{'is identical to' if shared['sim'] == single['sim'] else 'differs from'} "
          f"WPOS alone (cycles {shared['sim']['cycles']} vs {single['sim']['cycles']})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.CALLS_PER_SECOND))
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    if not run.build():
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    ok = True
    for workload in args.workload or ["docs", "records", "desktop"]:
        ok = check_workload(workload, args.seconds, bounds) and ok
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
