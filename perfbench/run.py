#!/usr/bin/env python3
"""End-to-end benchmark of the Workplace OS reproduction.

    python3 perfbench/run.py --workload docs|records|desktop --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (and the
simulator sources it compiles) into .bench_build/. Each run generates one
seeded OS/2 op script per episode and replays it on the multi-server system
(WPOS) and on the monolithic comparator, each system in fresh processes of
its own, one process at a time. Every metric is printed with its unit; the
last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off). With
--trace 1 the WPOS side is replayed once more with the kernel tracer on,
and the metrics are the per-layer ones. See perfbench/README.md.
"""
import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "wpos_perfbench")

# Window API calls per host second of both systems' windows together, as
# measured on a 4-vCPU x86-64 host; sizes the windows for --seconds.
# Fixed numbers, so a run's simulated statistics depend on the seed alone.
CALLS_PER_SECOND = {"docs": 44_000, "records": 28_000, "desktop": 76_000}
# Episodes per run (at least): each is a fresh pair of systems, set up,
# warmed and measured, so set-up time is a median over episodes.
EPISODES = 10
# Processes per system per run. A process's memory placement alone moves its
# host speed by several percent, so the episodes are spread over a few fresh
# processes, WPOS and mono taking turns.
PROCESSES = 5
# Most window calls one episode may hold. The 8 MB kernel heap is a bump
# allocator that never frees (each disk interrupt leaks 64 B), so a window
# must stay well inside it; see README.md, "Program limits".
MAX_EPISODE_CALLS = {"docs": 100_000, "records": 40_000, "desktop": 200_000}

# The paper's Table 1 WPOS:OS/2 ratios for the rows each workload is shaped like.
PAPER_RATIO = {"docs": "2.96 (File Intensive 1)", "records": "2.97 (File Intensive 2)",
               "desktop": "0.71-1.02 (Graphics / PM Tasking)"}

OPS = ["open", "read", "write", "close", "delete", "dirlist", "fill", "blit", "post", "get",
       "switch"]

CHILD_TIMEOUT_S = 150

# Duration of one speed probe on the reference host; host_s is expressed in
# seconds of a host that runs the probe in this time.
PROBE_REF_S = 0.005


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds wpos_perfbench; returns False on failure."""
    for needed in ("src/CMakeLists.txt", "bench/lib/systems.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found; run from a full checkout")
            return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: {' '.join(cmd)}: {err}")
            return False
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def window_plan(workload, seconds):
    """(calls per episode, episodes) for a run of `seconds`."""
    total = CALLS_PER_SECOND[workload] * seconds
    episodes = max(EPISODES, -(-total // MAX_EPISODE_CALLS[workload]))
    return max(1000, round(total / episodes)), episodes


def run_system(system, workload, seed, calls, episodes, trace=False, first=0):
    """Runs one system in a fresh process; returns its parsed result lines."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--calls", str(calls),
           "--first-episode", str(first), "--episodes", str(episodes), "--system", system]
    if trace:
        cmd.append("--trace")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        log(done.stderr.decode(errors="replace")[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}")
    return [json.loads(line) for line in done.stdout.decode().splitlines() if line.strip()]


def histogram(parts):
    """Merges {"v": values, "n": counts} histograms into one Counter."""
    merged = collections.Counter()
    for h in parts:
        merged.update(dict(zip(h["v"], h["n"])))
    return merged


def percentile(hist, p):
    """Nearest-rank percentile of a histogram; 0 when it is empty."""
    total = sum(hist.values())
    rank = max(1, math.ceil(p / 100.0 * total))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return value
    return 0


def merge(parts):
    """One system's process results, combined as if one run held every episode."""
    first = parts[0]
    r = {"system": first["system"], "seed": first["seed"],
         "script_hash": [p["script_hash"] for p in parts],
         "completed": all(p["completed"] for p in parts),
         "maxrss_kb": max(p["maxrss_kb"] for p in parts)}
    for key in ("episodes", "window_calls", "attempted", "failed"):
        r[key] = sum(p[key] for p in parts)
    r["setup"] = {k: [x for p in parts for x in p["setup"][k]] for k in first["setup"]}
    r["window"] = {k: sum(p["window"][k] for p in parts)
                   for k in ("user_s", "sys_s", "minor_faults")}
    for k in ("segment_s", "probe_s"):
        r["window"][k] = {e: v for p in parts for e, v in p["window"][k].items()}
    sim = {}
    for key, value in first["sim"].items():
        if key == "op_cycles":
            sim[key] = {op: histogram(p["sim"][key][op] for p in parts) for op in value}
        elif key == "heap_end_max":
            sim[key] = max(p["sim"][key] for p in parts)
        elif key in ("heap_capacity", "ns_per_cycle"):
            sim[key] = value
        else:
            sim[key] = sum(p["sim"][key] for p in parts)
    r["sim"] = sim
    if "trace" in first:
        tr = {k: sum(p["trace"][k] for p in parts)
              for k, v in first["trace"].items() if isinstance(v, int)}
        tr["host_ns"] = {op: histogram(p["trace"]["host_ns"][op] for p in parts)
                         for op in first["trace"]["host_ns"]}
        tr["rpc_queue_wait"] = histogram(p["trace"]["rpc_queue_wait"] for p in parts)
        r["trace"] = tr
    return r


def process_plan(episodes):
    """(first episode, episode count) of each process of one system."""
    bounds = [episodes * k // PROCESSES for k in range(PROCESSES + 1)]
    return [(a, b - a) for a, b in zip(bounds, bounds[1:]) if b > a]


def run_all(workload, seed, calls, episodes, trace):
    """Runs WPOS, mono and (with `trace`) traced WPOS over every episode.

    The episodes are split over PROCESSES fresh processes per system, taking
    turns; returns the merged (wpos, mono, traced-wpos-or-None) results."""
    parts = {"wpos": [], "mono": [], "traced": []}
    for first, count in process_plan(episodes):
        parts["wpos"] += run_system("wpos", workload, seed, calls, count, first=first)
        parts["mono"] += run_system("mono", workload, seed, calls, count, first=first)
        if trace:
            parts["traced"] += run_system("wpos", workload, seed, calls, count, trace=True,
                                          first=first)
    return (merge(parts["wpos"]), merge(parts["mono"]),
            merge(parts["traced"]) if trace else None)


def median(values):
    return statistics.median(values)


def setup_seconds(r):
    """Median over episodes of one system's set-up: construct + mkfs + set-up/warm-up."""
    s = r["setup"]
    return median([a + b + c for a, b, c in zip(s["construct_s"], s["format_s"], s["warm_s"])])


def us(r, cycles):
    return cycles * r["sim"]["ns_per_cycle"] / 1000.0


def all_calls(r):
    """Histogram of every window call's simulated cycles."""
    return histogram({"v": list(h), "n": list(h.values())}
                     for h in r["sim"]["op_cycles"].values())


def mean(total, count):
    return total / count if count else 0.0


def window_wall_s(r):
    """Mean wall seconds of one episode's window."""
    return sum(sum(v) for v in r["window"]["segment_s"].values()) / r["episodes"]


def probe_s(r):
    """Mean duration of the speed probe run after every window slice."""
    probes = [x for v in r["window"]["probe_s"].values() for x in v]
    return sum(probes) / len(probes)


def window_host_s(r):
    """Host seconds of one episode's window, at the reference host speed.

    Other tenants of the host slow the simulator by up to 20% for minutes at
    a time. After every tenth of every window the same process runs a fixed
    speed probe (main.cc, SpeedProbe); the window's wall time is scaled by
    PROBE_REF_S / (mean probe time), which cancels what the host's load did
    to both (see README.md, "Host-time noise")."""
    return window_wall_s(r) * PROBE_REF_S / probe_s(r)


def end_to_end(w, m):
    """The end-to-end metrics from the untraced WPOS and mono results."""
    episodes = w["episodes"]
    host_s = window_host_s(w) + window_host_s(m)
    instr = (w["sim"]["instructions"] + m["sim"]["instructions"]) / episodes
    attempted = w["attempted"] + m["attempted"]
    failed = w["failed"] + m["failed"]
    return {
        "wpos_sim_ms": (w["sim"]["ms"] / episodes, "ms"),
        "mono_sim_ms": (m["sim"]["ms"] / episodes, "ms"),
        "wpos_op_p50_us": (us(w, percentile(all_calls(w), 50)), "us"),
        "wpos_op_p99_us": (us(w, percentile(all_calls(w), 99)), "us"),
        "host_s": (host_s, "s"),
        "sim_mips": (instr / host_s / 1e6, "Minstr/s"),
        "setup_s": (setup_seconds(w) + setup_seconds(m), "s"),
        "peak_rss_mb": (max(w["maxrss_kb"], m["maxrss_kb"]) / 1024.0, "MB"),
        "ok_op_frac": (1.0 - failed / attempted, "fraction"),
    }


def per_layer(w, m, t):
    """The per-layer metrics from the untraced WPOS/mono results and the traced WPOS one."""
    out = {}
    calls = w["window_calls"]
    ws, ms, tr = w["sim"], m["sim"], t["trace"]

    for op in OPS:
        h = ws["op_cycles"][op]
        out[f"pers.{op}.calls"] = (sum(h.values()), "count")
        out[f"pers.{op}.sim_cycles_p50"] = (percentile(h, 50), "cycles")
        out[f"pers.{op}.sim_cycles_p99"] = (percentile(h, 99), "cycles")
        out[f"pers.{op}.host_ns_p50"] = (percentile(tr["host_ns"][op], 50), "ns")

    for name, key in [("rpc", "rpc"), ("ctx_switch", "ctx_switches"),
                      ("space_switch", "space_switches"), ("interrupts", "interrupts"),
                      ("mach_msgs", "mach_msgs"), ("vm_faults", "vm_faults")]:
        out[f"mk.{name}_per_op"] = (ws[key] / calls, "1/op")
    out["mk.heap_bytes_per_op"] = (ws["heap_bytes"] / calls, "B/op")
    out["mk.heap_headroom_frac"] = (1.0 - ws["heap_end_max"] / ws["heap_capacity"], "fraction")
    out["mk.rpc.client_cycles"] = (mean(tr["rpc_client"], tr["rpc_spans"]), "cycles")
    out["mk.rpc.server_cycles"] = (mean(tr["rpc_server"], tr["rpc_spans"]), "cycles")
    out["mk.rpc.reply_cycles"] = (mean(tr["rpc_reply"], tr["rpc_spans"]), "cycles")
    out["mk.rpc.queue_wait_cycles_p50"] = (percentile(tr["rpc_queue_wait"], 50), "cycles")
    out["mk.trap.cycles_mean"] = (mean(tr["trap_cycles"], tr["traps"]), "cycles")

    for name, r in (("wpos", w), ("mono", m)):
        s = r["sim"]
        kinstr = s["instructions"] / 1000.0
        n = r["window_calls"]
        out[f"hw.{name}.cpi"] = (s["cycles"] / s["instructions"], "cycles/instr")
        out[f"hw.{name}.instr_per_op"] = (s["instructions"] / n, "instr/op")
        out[f"hw.{name}.icache_mpki"] = (s["icache_misses"] / kinstr, "1/kinstr")
        out[f"hw.{name}.dcache_mpki"] = (s["dcache_misses"] / kinstr, "1/kinstr")
        out[f"hw.{name}.tlb_mpki"] = (s["tlb_misses"] / kinstr, "1/kinstr")
        out[f"hw.{name}.bus_cycles_per_op"] = (s["bus_cycles"] / n, "cycles/op")
        out[f"hw.{name}.uncached_per_op"] = (s["uncached"] / n, "1/op")

    out["svc.fs.ops_per_op"] = (ws["fs_ops"] / calls, "1/op")
    out["svc.fs.reads_per_op"] = (ws["fs_reads"] / calls, "1/op")
    out["svc.fs.writes_per_op"] = (ws["fs_writes"] / calls, "1/op")
    out["svc.fscache.hits"] = (ws["fscache_hits"], "count")
    out["svc.fscache.misses"] = (ws["fscache_misses"], "count")
    out["svc.fs.handler_cycles_mean"] = (mean(tr["fs_self"], tr["fs_spans"]), "cycles")

    out["drv.disk.ops_per_op"] = (ws["disk_ops"] / calls, "1/op")
    out["drv.disk.rpc_cycles_mean"] = (mean(tr["disk_rpc"], tr["disk_spans"]), "cycles")

    out["mks.naming.ops"] = (ws["naming_ops"], "count")
    out["mks.pager.ops"] = (ws["pager_ops"], "count")

    out["baseline.wpos_mono_ratio"] = (ws["ms"] / ms["ms"], "ratio")
    for op in OPS:
        out[f"baseline.{op}.sim_cycles_p50"] = (percentile(ms["op_cycles"][op], 50), "cycles")

    def setup_part(key):
        return sum(median(r["setup"][key]) for r in (w, m))

    out["host.setup.construct_s"] = (setup_part("construct_s"), "s")
    out["host.setup.format_s"] = (setup_part("format_s"), "s")
    out["host.setup.warm_s"] = (setup_part("warm_s"), "s")
    out["host.setup.minor_faults"] = (setup_part("minor_faults"), "count")
    out["host.window.minor_faults"] = (w["window"]["minor_faults"] + m["window"]["minor_faults"],
                                       "count")
    out["host.window.user_s"] = (w["window"]["user_s"] + m["window"]["user_s"], "s")
    out["host.window.sys_s"] = (w["window"]["sys_s"] + m["window"]["sys_s"], "s")
    out["host.window.wall_s"] = (window_wall_s(w) + window_wall_s(m), "s")
    out["host.probe_s"] = ((probe_s(w) + probe_s(m)) / 2, "s")
    out["host.trace_overhead_frac"] = (
        window_host_s(t) / window_host_s(w) - 1.0, "fraction")
    out["trace.unattributed_frac"] = (1.0 - mean(tr["covered_cycles"], tr["call_cycles"]),
                                      "fraction")
    return out


def consistency_errors(w, m, t):
    """Checks that make a run's numbers trustworthy; returns messages."""
    errors = []
    for r in (w, m) + ((t,) if t else ()):
        if not r["completed"]:
            errors.append(f"{r['system']}: the app thread blocked before the script ended")
    if w["script_hash"] != m["script_hash"]:
        errors.append("WPOS and mono replayed different scripts")
    if w["window_calls"] != m["window_calls"]:
        errors.append("WPOS and mono measured different call counts")
    if t is not None and t["sim"] != w["sim"]:
        diff = [k for k in w["sim"] if w["sim"][k] != t["sim"].get(k)]
        errors.append(f"traced simulated counters differ from untraced: {diff}")
    return errors


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit}")


def report(workload, w, m, metrics):
    """Human-readable lines (everything but the last line of stdout)."""
    print(f"workload {workload}  seed {w['seed']}  episodes {w['episodes']}  "
          f"window calls {w['window_calls']} per system "
          f"({w['window_calls'] // w['episodes']} per episode)")
    print_metrics(metrics)
    ratio = w["sim"]["ms"] / m["sim"]["ms"]
    print(f"  WPOS:mono simulated-time ratio {ratio:.2f}; paper Table 1: {PAPER_RATIO[workload]}."
          " The model is unvalidated against hardware beyond these ratios.")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CALLS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("perfbench: --seed must be >= 0 and --seconds >= 1")
        return 2
    if not build():
        return 1

    calls, episodes = window_plan(args.workload, args.seconds)
    try:
        w, m, t = run_all(args.workload, args.seed, calls, episodes, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        log(f"perfbench: {err}")
        return 1

    errors = consistency_errors(w, m, t)
    for e in errors:
        log(f"perfbench: {e}")
    e2e = end_to_end(w, m)
    report(args.workload, w, m, e2e)
    attempted = w["attempted"] + m["attempted"]
    failed = w["failed"] + m["failed"]
    print(f"  failed_op_frac {failed / attempted:.6f} ({failed} of {attempted} calls; "
          f"ok_op_frac above is its complement)")
    metrics = e2e
    if t is not None:
        metrics = per_layer(w, m, t)
        print_metrics(metrics)
        attempted += t["attempted"]
        failed += t["failed"]
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
