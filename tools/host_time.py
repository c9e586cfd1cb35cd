#!/usr/bin/env python3
"""Host time of each bench binary: wall and user seconds over repeated runs.

    tools/host_time.py BUILD [--against PARENT_BUILD] [--runs N]

Runs each of the eight bench/bench_* binaries of the build directory BUILD
N times (default 5) with their output discarded, and prints per binary the
median and [first quartile, third quartile] of wall and user seconds. With
--against, every run of a BUILD binary is paired with a run of the same
binary from PARENT_BUILD, the two taking turns so that both see the same
host load, and the table adds the parent's figures, the change in median
wall time and how many pairs the change won on wall time.

The benches' simulated output is gated byte for byte elsewhere
(tools/bench_delta.py --exact). Host time varies between hosts and between
runs, so a single build is only reported. With --against, both builds run
on the same host in alternation, and the tool judges their sum: the eight
median wall times of BUILD must not exceed those of PARENT_BUILD by more
than the host_s bound in BENCHMARK.json (a fraction of the parent's sum).
Exit status: 0; 1 when a binary is missing or exits nonzero, or when the
summed median wall time is slower than the parent's by more than the bound.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCHES = ["table1", "table2", "ablations", "ipc_vs_rpc", "fine_objects", "naming",
           "os2_memory", "context_switch"]


def host_s_bound():
    """The host_s end-to-end bound of BENCHMARK.json, a fraction."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as f:
        metrics = json.load(f)["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == "host_s")


def binary(build, bench):
    return os.path.join(os.path.abspath(build), "bench", f"bench_{bench}")


def run_once(path, cwd):
    """(wall seconds, user seconds) of one run of `path`."""
    user0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    start = time.perf_counter()
    done = subprocess.run([path], cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"host_time: {path} exited with {done.returncode}")
    return wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - user0


def summary(values):
    """'median [q1-q3]' of `values`, in seconds."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.3f}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.3f} [{q1:.3f}-{q3:.3f}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build", help="build directory holding bench/bench_*")
    parser.add_argument("--against", metavar="PARENT_BUILD",
                        help="build directory of the parent, run in alternation")
    parser.add_argument("--runs", type=int, default=5, help="runs per binary (default 5)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    builds = [args.build] + ([args.against] if args.against else [])
    for build in builds:
        for bench in BENCHES:
            if not os.access(binary(build, bench), os.X_OK):
                print(f"host_time: {binary(build, bench)} not found", file=sys.stderr)
                return 1

    if args.against:
        print(f"{'bench':<16}{'parent wall_s':>26}{'change wall_s':>26}{'delta':>9}"
              f"{'won':>7}{'parent user_s':>26}{'change user_s':>26}")
    else:
        print(f"{'bench':<16}{'wall_s':>26}{'user_s':>26}")
    change_sum = 0.0
    parent_sum = 0.0
    with tempfile.TemporaryDirectory() as cwd:
        for bench in BENCHES:
            change = []
            parent = []
            for i in range(args.runs):
                # Alternate which build goes first, so neither always runs
                # right after the other's warm-up.
                if args.against and i % 2 == 1:
                    parent.append(run_once(binary(args.against, bench), cwd))
                change.append(run_once(binary(args.build, bench), cwd))
                if args.against and i % 2 == 0:
                    parent.append(run_once(binary(args.against, bench), cwd))
            wall = [w for w, _ in change]
            user = [u for _, u in change]
            if not args.against:
                print(f"{bench:<16}{summary(wall):>26}{summary(user):>26}", flush=True)
                continue
            parent_wall = [w for w, _ in parent]
            won = sum(1 for c, p in zip(wall, parent_wall) if c < p)
            delta = statistics.median(wall) / statistics.median(parent_wall) - 1
            print(f"{bench:<16}{summary(parent_wall):>26}{summary(wall):>26}{delta:>+9.1%}"
                  f"{f'{won}/{args.runs}':>7}{summary([u for _, u in parent]):>26}"
                  f"{summary(user):>26}", flush=True)
            change_sum += statistics.median(wall)
            parent_sum += statistics.median(parent_wall)
    if not args.against:
        return 0
    bound = host_s_bound()
    delta = change_sum / parent_sum - 1
    verdict = "slower than" if delta > bound else "within"
    print(f"summed median wall_s: parent {parent_sum:.3f}, change {change_sum:.3f}, "
          f"{delta:+.1%}, {verdict} the host_s bound of +{bound:.0%}")
    return 1 if delta > bound else 0


if __name__ == "__main__":
    sys.exit(main())
