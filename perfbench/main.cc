// wpos_perfbench: replays seeded OS/2 op scripts on one system and prints
// everything it measured as a single JSON line. perfbench/run.py starts it
// once per system (each in a fresh process, so the process-global code
// layout of one system cannot shift the other's numbers) and turns the
// lines into the benchmark's metrics.
//
//   wpos_perfbench --workload docs|records|desktop --seed N --calls N
//                  --episodes N --system wpos|mono|mono+wpos [--trace]
//
// Each episode generates its script, builds a fresh system, runs mkfs and
// the script's set-up and warm-up parts (timed as set-up), then the measured
// window of `--calls` API calls. With --trace the kernel tracer is enabled
// for the windows only and the line gains a "trace" object with per-layer
// self time computed from the tracer's spans. Tracing charges no simulated
// cycles, so the "sim" object must match an untraced run's exactly.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/lib/systems.h"
#include "perfbench/script.h"
#include "src/base/log.h"
#include "src/mk/trace/tracer.h"

namespace perfbench {
namespace {

double HostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long minor_faults = 0;
  long maxrss_kb = 0;
};

Usage GetUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  u.minor_faults = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

// Host speed probe: a fixed amount of the kind of work the simulator does
// (dependent loads over 4 MB, ordered-map lookups) in none of its code. Run
// between window slices, it measures how fast the host is right then.
class SpeedProbe {
 public:
  SpeedProbe() : ring_(kRing) {
    for (uint32_t i = 0; i < kRing; ++i) {
      ring_[i] = (i * 1664525u + 1013904223u) & (kRing - 1);  // one full cycle
    }
    for (uint32_t i = 0; i < 4096; ++i) {
      tree_.emplace((i * 40503u) & 0xffff, i);
    }
  }

  double Seconds() {
    const double t0 = HostNow();
    uint64_t acc = 0;
    for (int i = 0; i < 40'000; ++i) {
      at_ = ring_[at_];
      auto it = tree_.lower_bound(at_ & 0xffff);
      acc += it == tree_.end() ? 1 : it->second;
    }
    sink_ += acc;
    return HostNow() - t0;
  }
  uint64_t sink() const { return sink_; }

 private:
  static constexpr uint32_t kRing = 1u << 20;
  std::vector<uint32_t> ring_;
  std::map<uint32_t, uint32_t> tree_;
  uint32_t at_ = 0;
  uint64_t sink_ = 0;
};

// Minimal writer for the one-line JSON result.
class Json {
 public:
  Json& Open(const char* key = nullptr) {
    Key(key);
    out_ << '{';
    first_ = true;
    return *this;
  }
  Json& Close() {
    out_ << '}';
    first_ = false;
    return *this;
  }
  Json& Num(const char* key, double v) {
    Key(key);
    Double(v);
    return *this;
  }
  Json& Nums(const char* key, const std::vector<double>& v) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < v.size(); ++i) {
      out_ << (i == 0 ? "" : ",");
      Double(v[i]);
    }
    out_ << ']';
    return *this;
  }
  // A sample as a histogram: {"v": [sorted distinct values], "n": [counts]}.
  // Histograms from several processes merge exactly; run.py takes the
  // percentiles.
  template <class T>
  Json& Hist(const char* key, std::vector<T> sample) {
    std::sort(sample.begin(), sample.end());
    std::vector<uint64_t> values, counts;
    for (const T v : sample) {
      if (values.empty() || values.back() != v) {
        values.push_back(v);
        counts.push_back(0);
      }
      ++counts.back();
    }
    Open(key);
    Ints("v", values).Ints("n", counts);
    return Close();
  }
  Json& Ints(const char* key, const std::vector<uint64_t>& v) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < v.size(); ++i) {
      out_ << (i == 0 ? "" : ",") << v[i];
    }
    out_ << ']';
    return *this;
  }
  Json& Int(const char* key, uint64_t v) {
    Key(key);
    out_ << v;
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ << '"' << v << '"';
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  void Key(const char* key) {
    if (!first_) {
      out_ << ',';
    }
    first_ = false;
    if (key != nullptr) {
      out_ << '"' << key << "\":";
    }
  }
  // All digits, so a value round-trips exactly; JSON has no NaN or inf.
  void Double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
  }

  std::ostringstream out_;
  bool first_ = true;
};

// Public counters of every layer, read at the window's edges. The names
// are the keys of the "sim" object in the output.
enum Counter {
  kRpc, kMachMsgs, kInterrupts, kCtxSwitches, kSpaceSwitches, kVmFaults, kHeapBytes, kFsOps,
  kFsReads, kFsWrites, kDiskOps, kNamingOps, kPagerOps, kFsCacheHits, kFsCacheMisses,
  kNumCounters
};
constexpr const char* kCounterNames[kNumCounters] = {
    "rpc",      "mach_msgs", "interrupts", "ctx_switches", "space_switches",
    "vm_faults", "heap_bytes", "fs_ops",    "fs_reads",     "fs_writes",
    "disk_ops", "naming_ops", "pager_ops", "fscache_hits", "fscache_misses"};

struct Snapshot {
  hw::CpuCounters cpu;
  std::array<uint64_t, kNumCounters> n{};

  // Accumulates the window [s0, s1].
  void AddWindow(const Snapshot& s0, const Snapshot& s1) {
    cpu += s1.cpu - s0.cpu;
    for (int i = 0; i < kNumCounters; ++i) {
      n[i] += s1.n[i] - s0.n[i];
    }
  }
};

uint64_t RegistryCount(mk::Kernel& k, const char* name) {
  const auto& counters = k.tracer().metrics().counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

template <class Sys>
Snapshot Take(Sys& sys) {
  mk::Kernel& k = sys.kernel();
  Snapshot s;
  s.cpu = k.Counters();
  s.n[kRpc] = k.rpc_calls();
  s.n[kMachMsgs] = k.mach_msgs();
  s.n[kInterrupts] = k.interrupts_delivered();
  s.n[kCtxSwitches] = k.scheduler().context_switches();
  s.n[kSpaceSwitches] = k.scheduler().address_space_switches();
  s.n[kHeapBytes] = k.heap().bytes_allocated();
  s.n[kVmFaults] = RegistryCount(k, "mk.vm.faults");
  s.n[kFsOps] = RegistryCount(k, "server.fs.ops");
  s.n[kDiskOps] = RegistryCount(k, "server.disk.ops");
  s.n[kNamingOps] = RegistryCount(k, "server.naming.ops");
  s.n[kPagerOps] = RegistryCount(k, "server.pager.ops");
  s.n[kFsCacheHits] = RegistryCount(k, "mk.fs.cache.hits");
  s.n[kFsCacheMisses] = RegistryCount(k, "mk.fs.cache.misses");
  if constexpr (std::is_same_v<Sys, bench::WposSystem>) {
    s.n[kFsReads] = sys.file_server().reads();
    s.n[kFsWrites] = sys.file_server().writes();
  }
  return s;
}

// One measured API call.
struct Call {
  OpKind kind;
  uint64_t begin_cycle;
  uint64_t end_cycle;
  uint64_t host_ns;  // traced runs only
};

// Issues script ops through the OS/2 API and checks each result against an
// independent copy of the reference model. A non-OK status or a wrong
// result counts as a failed call; the replay carries on.
class Replayer {
 public:
  Replayer(const Script& script, bench::Os2ApiBase& api, mk::Kernel& kernel)
      : script_(script),
        api_(api),
        kernel_(kernel),
        model_(script),
        handles_(script.files.size(), 0),
        buf_(256 * 1024),
        expect_(256 * 1024) {}

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Runs `ops`; appends one Call per API call to `calls` when non-null.
  void Run(mk::Env& env, std::span<const Op> ops, std::vector<Call>* calls, bool time_host) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kCompute) {
        env.Compute(op.a);
        continue;
      }
      const auto h0 = time_host ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point();
      const uint64_t c0 = kernel_.cpu().cycles();
      const bool ok = Issue(env, op);
      const uint64_t c1 = kernel_.cpu().cycles();
      uint64_t ns = 0;
      if (time_host) {
        ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - h0)
                                       .count());
      }
      ++attempted_;
      if (!ok) {
        ++failed_;
      }
      if (calls != nullptr) {
        calls->push_back({op.kind, c0, c1, ns});
      }
    }
  }

 private:
  bool Issue(mk::Env& env, const Op& op) {
    switch (op.kind) {
      case OpKind::kMkdir:
        model_.Mkdir(op.slot);
        return api_.Mkdir(env, script_.dirs[op.slot]) == base::Status::kOk;
      case OpKind::kWinCreate: {
        model_.WinCreate(op.slot);
        auto hwnd = api_.WinCreate(env, op.a, op.b, op.c, op.d);
        if (hwnds_.size() <= op.slot) {
          hwnds_.resize(op.slot + 1, 0);
        }
        hwnds_[op.slot] = hwnd.value_or(0);
        return hwnd.ok();
      }
      case OpKind::kOpen: {
        if ((op.c & svc::kFsCreate) != 0) {
          model_.Create(op.slot);
        }
        auto h = api_.Open(env, script_.files[op.slot], op.c);
        handles_[op.slot] = h.value_or(0);
        return h.ok();
      }
      case OpKind::kClose:
        return api_.Close(env, handles_[op.slot]) == base::Status::kOk;
      case OpKind::kDelete:
        model_.Delete(op.slot);
        return api_.Unlink(env, script_.files[op.slot]) == base::Status::kOk;
      case OpKind::kDirList: {
        auto n = api_.DirCount(env, script_.dirs[op.slot]);
        return n.ok() && *n == model_.dir_count(op.slot);
      }
      case OpKind::kRead: {
        const std::span<const uint8_t> want = model_.Read(op.slot, op.a, op.b);
        auto got = api_.Read(env, handles_[op.slot], op.a, buf_.data(), op.b);
        return got.ok() && *got == want.size() &&
               (want.empty() || std::memcmp(buf_.data(), want.data(), want.size()) == 0);
      }
      case OpKind::kWrite: {
        FillBytes(op.salt, op.b, expect_.data());
        model_.Write(op.slot, op.a, expect_.data(), op.b);
        auto got = api_.Write(env, handles_[op.slot], op.a, expect_.data(), op.b);
        return got.ok() && *got == op.b;
      }
      case OpKind::kFill:
        return api_.FillRect(env, hwnds_[op.slot], op.a, op.b, op.c, op.d,
                             static_cast<uint8_t>(op.salt)) == base::Status::kOk;
      case OpKind::kBlit:
        return api_.BitBlt(env, hwnds_[op.slot], op.a, op.b, op.c, op.d) == base::Status::kOk;
      case OpKind::kPost:
        model_.Post(op.slot, op.a);
        return api_.WinPost(env, hwnds_[op.slot], op.a, op.slot, 0) == base::Status::kOk;
      case OpKind::kGet: {
        const uint32_t want = model_.Get(op.slot);
        auto got = api_.WinGet(env, hwnds_[op.slot]);
        return got.ok() && *got == want;
      }
      case OpKind::kSwitch:
        model_.Switch(op.slot);
        return api_.WinSwitch(env, hwnds_[op.slot]) == base::Status::kOk;
      case OpKind::kCompute:
        break;
    }
    return false;
  }

  const Script& script_;
  bench::Os2ApiBase& api_;
  mk::Kernel& kernel_;
  Model model_;
  std::vector<uint64_t> handles_;
  std::vector<uint32_t> hwnds_;
  std::vector<uint8_t> buf_;
  std::vector<uint8_t> expect_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Layer self time from the tracer's causal spans over the window's calls,
// kept as sums and samples so episodes and processes add up; run.py takes
// the means and percentiles.
struct TraceTotals {
  uint64_t rpc_spans = 0, rpc_client = 0, rpc_server = 0, rpc_reply = 0;
  std::vector<uint64_t> queue_waits;
  uint64_t fs_spans = 0, fs_self = 0;  // file-server handler minus its nested spans
  uint64_t disk_spans = 0, disk_rpc = 0;  // whole disk-driver RPC, device wait included
  uint64_t traps = 0, trap_cycles = 0;    // thread_self() probe after the window
  uint64_t call_cycles = 0, covered_cycles = 0;  // call cycles inside any program span
  std::vector<uint32_t> host_ns[kNumMeasuredOps];
};

void Summarize(const mk::trace::Tracer& tracer, mk::ThreadId app,
               const std::vector<Call>& calls, TraceTotals* t) {
  using mk::trace::SpanKind;
  // Cycles of each span covered by its direct children (children of one
  // span run one after another on the single simulated CPU).
  std::map<uint64_t, uint64_t> child_cycles;
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const auto& [id, s] : tracer.spans()) {
    if (!s.ended || s.kind == SpanKind::kTrap) {
      continue;  // the trap probe runs after the window
    }
    // Work done for a call runs on the app thread or inside one of its RPC
    // spans, so the app thread's spans cover everything attributed to it.
    // (A device driver parked in receive across calls opens spans on its own thread.)
    if (s.thread == app) {
      intervals.emplace_back(s.begin_cycle, s.end_cycle);
    }
    if (s.parent != 0) {
      child_cycles[s.parent] += s.end_cycle - s.begin_cycle;
    }
    if (s.kind == SpanKind::kRpc && s.dispatch_cycle != 0 && s.reply_cycle != 0) {
      ++t->rpc_spans;
      t->rpc_client += s.dispatch_cycle - s.begin_cycle;
      t->rpc_server += s.reply_cycle - s.dispatch_cycle;
      t->rpc_reply += s.end_cycle - s.reply_cycle;
      if (s.queued_cycle != 0) {
        t->queue_waits.push_back(s.dispatch_cycle - s.queued_cycle);
      }
      if (s.label == "disk-driver") {
        ++t->disk_spans;
        t->disk_rpc += s.end_cycle - s.begin_cycle;
      }
    }
  }
  // The file server's handler self time: the server phase of each
  // file-server RPC (dispatch to reply) minus what the handler's own spans
  // (disk RPCs, faults) cover. The handler span itself is not used: it
  // closes only when the server thread next runs, after the reply.
  for (const auto& [id, s] : tracer.spans()) {
    if (!s.ended || s.kind != SpanKind::kServerOp || s.label != "fs") {
      continue;
    }
    auto rpc = tracer.spans().find(s.parent);
    if (rpc == tracer.spans().end() || rpc->second.reply_cycle == 0) {
      continue;
    }
    ++t->fs_spans;
    const uint64_t handler = rpc->second.reply_cycle - rpc->second.dispatch_cycle;
    t->fs_self += handler - std::min(handler, child_cycles[id]);
  }

  // Union of all program spans, then how much of each call it covers.
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  for (const auto& iv : intervals) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  size_t j = 0;
  for (const Call& c : calls) {
    t->call_cycles += c.end_cycle - c.begin_cycle;
    t->host_ns[static_cast<int>(c.kind)].push_back(static_cast<uint32_t>(c.host_ns));
    while (j < merged.size() && merged[j].second <= c.begin_cycle) {
      ++j;
    }
    for (size_t k = j; k < merged.size() && merged[k].first < c.end_cycle; ++k) {
      const uint64_t lo = std::max(merged[k].first, c.begin_cycle);
      const uint64_t hi = std::min(merged[k].second, c.end_cycle);
      t->covered_cycles += hi > lo ? hi - lo : 0;
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t calls = 0;  // window calls per episode
  int first_episode = 0;
  int episodes = 1;
  std::string system;
  bool trace = false;
};

// Generator seed of one episode: small run seeds give unrelated streams.
uint64_t EpisodeSeed(uint64_t seed, int episode) {
  return (seed * 0x9e3779b97f4a7c15ull) ^ (static_cast<uint64_t>(episode + 1) * 0xbf58476d1ce4e5b9ull);
}

// Runs every episode on a fresh `Sys`: construct, mkfs, the script's set-up
// and warm-up (timed as set-up), then the measured window.
template <class Sys>
std::string RunSystem(const char* name, const Args& args) {
  struct SetupTimes {
    double construct_s, format_s, warm_s;
    long minor_faults;
  };
  std::vector<SetupTimes> setups;
  std::vector<uint32_t> op_cycles[kNumMeasuredOps];  // simulated latency of each window call
  Snapshot window;
  uint64_t heap_end_max = 0;
  constexpr size_t kSegments = 10;
  std::vector<std::vector<double>> segments;  // per episode, per slice
  std::vector<std::vector<double>> probes;    // per episode, after each slice
  SpeedProbe probe;
  double user_s = 0, sys_s = 0;
  long window_faults = 0;
  uint64_t attempted = 0, failed = 0, script_hash = 0;
  bool completed = true;
  TraceTotals trace;
  double ns_per_cycle = 0;

  for (int e = 0; e < args.episodes; ++e) {
    Script script;
    Generate(args.workload, EpisodeSeed(args.seed, args.first_episode + e), args.calls, &script);
    script_hash = script_hash * 31 + script.Hash();
    std::vector<Call> calls;
    calls.reserve(script.window.size());
    bool finished = false;

    const Usage u0 = GetUsage();
    const double t0 = HostNow();
    Sys sys;
    const double t_built = HostNow();
    auto api = sys.MakeApi();
    Replayer replay(script, *api, sys.kernel());
    sys.RunApp([&](mk::Env& env) {
      const double t_formatted = HostNow();
      replay.Run(env, script.setup, nullptr, false);
      replay.Run(env, script.warm, nullptr, false);
      setups.push_back({t_built - t0, t_formatted - t_built, HostNow() - t_formatted,
                        GetUsage().minor_faults - u0.minor_faults});
      if (args.trace) {
        sys.kernel().tracer().Enable();
      }
      const Usage w0 = GetUsage();
      const Snapshot s0 = Take(sys);
      // The window runs in kSegments timed slices (see run.py's host_s).
      const std::span<const Op> ops(script.window);
      std::vector<double> slices, speeds;
      for (size_t k = 0; k < kSegments; ++k) {
        const double h = HostNow();
        replay.Run(env, ops.subspan(ops.size() * k / kSegments,
                                    ops.size() * (k + 1) / kSegments - ops.size() * k / kSegments),
                   &calls, args.trace);
        slices.push_back(HostNow() - h);
        speeds.push_back(probe.Seconds());
      }
      segments.push_back(slices);
      probes.push_back(speeds);
      const Snapshot s1 = Take(sys);
      const Usage w1 = GetUsage();
      window.AddWindow(s0, s1);
      heap_end_max = std::max(heap_end_max, s1.n[kHeapBytes]);
      user_s += w1.user_s - w0.user_s;
      sys_s += w1.sys_s - w0.sys_s;
      window_faults += w1.minor_faults - w0.minor_faults;
      if (args.trace) {
        // Table 2's denominator in the workload's cache state: thread_self().
        (void)env.ThreadSelf();
        const uint64_t n0 = sys.kernel().tracer().stats(mk::trace::SpanKind::kTrap).count;
        const uint64_t c0 = sys.kernel().tracer().stats(mk::trace::SpanKind::kTrap).total.cycles;
        for (int i = 0; i < 64; ++i) {
          (void)env.ThreadSelf();
        }
        const auto& after = sys.kernel().tracer().stats(mk::trace::SpanKind::kTrap);
        trace.traps += after.count - n0;
        trace.trap_cycles += after.total.cycles - c0;
        Summarize(sys.kernel().tracer(), env.thread()->id(), calls, &trace);
      }
      finished = true;
    });
    uint64_t total = 0;
    for (const std::vector<Op>* part : {&script.setup, &script.warm, &script.window}) {
      total += std::count_if(part->begin(), part->end(),
                             [](const Op& op) { return op.kind != OpKind::kCompute; });
    }
    attempted += replay.attempted();
    failed += replay.failed();
    if (!finished) {
      // The app thread never returned (a call blocked): every call the
      // script still held counts as failed.
      completed = false;
      attempted += total - replay.attempted();
      failed += total - replay.attempted();
    }
    ns_per_cycle = static_cast<double>(sys.kernel().cpu().CyclesToNs(1'000'000)) / 1e6;
    for (const Call& c : calls) {
      op_cycles[static_cast<int>(c.kind)].push_back(
          static_cast<uint32_t>(c.end_cycle - c.begin_cycle));
    }
  }

  Json j;
  j.Open();
  j.Str("system", name).Str("workload", args.workload).Int("seed", args.seed);
  j.Int("episodes", args.episodes).Int("script_hash", script_hash);
  uint64_t window_calls = 0;
  for (const auto& v : op_cycles) {
    window_calls += v.size();
  }
  j.Int("window_calls", window_calls);
  j.Int("attempted", attempted).Int("failed", failed).Int("completed", completed ? 1 : 0);
  // One entry per episode; run.py reports medians.
  std::vector<double> construct, format, warm, faults;
  for (const SetupTimes& st : setups) {
    construct.push_back(st.construct_s);
    format.push_back(st.format_s);
    warm.push_back(st.warm_s);
    faults.push_back(static_cast<double>(st.minor_faults));
  }
  j.Open("setup");
  j.Nums("construct_s", construct).Nums("format_s", format).Nums("warm_s", warm);
  j.Nums("minor_faults", faults);
  j.Close();
  j.Open("window");
  j.Num("user_s", user_s).Num("sys_s", sys_s);
  j.Open("segment_s");
  for (size_t e = 0; e < segments.size(); ++e) {
    j.Nums(std::to_string(args.first_episode + e).c_str(), segments[e]);
  }
  j.Close();
  j.Open("probe_s");
  for (size_t e = 0; e < probes.size(); ++e) {
    j.Nums(std::to_string(args.first_episode + e).c_str(), probes[e]);
  }
  j.Close();
  j.Int("probe_sink", probe.sink());
  j.Int("minor_faults", window_faults);
  j.Close();
  j.Int("maxrss_kb", GetUsage().maxrss_kb);

  // Everything in "sim" is simulated and must repeat exactly per seed.
  const hw::CpuCounters& d = window.cpu;
  j.Open("sim");
  j.Int("cycles", d.cycles).Int("instructions", d.instructions).Int("bus_cycles", d.bus_cycles);
  j.Int("icache_misses", d.icache_misses).Int("dcache_misses", d.dcache_misses);
  j.Int("tlb_misses", d.tlb_misses).Int("uncached", d.uncached_accesses);
  j.Num("ms", static_cast<double>(d.cycles) * ns_per_cycle * 1e-6);
  j.Num("ns_per_cycle", ns_per_cycle);
  for (int i = 0; i < kNumCounters; ++i) {
    j.Int(kCounterNames[i], window.n[i]);
  }
  j.Int("heap_end_max", heap_end_max).Int("heap_capacity", mk::KernelConfig().kernel_heap_bytes);
  j.Open("op_cycles");  // simulated latency of each window call, by op
  for (int k = 0; k < kNumMeasuredOps; ++k) {
    j.Hist(OpName(static_cast<OpKind>(k)), op_cycles[k]);
  }
  j.Close();
  j.Close();  // sim

  if (args.trace) {
    j.Open("trace");
    j.Open("host_ns");
    for (int k = 0; k < kNumMeasuredOps; ++k) {
      j.Hist(OpName(static_cast<OpKind>(k)), trace.host_ns[k]);
    }
    j.Close();
    j.Int("rpc_spans", trace.rpc_spans).Int("rpc_client", trace.rpc_client);
    j.Int("rpc_server", trace.rpc_server).Int("rpc_reply", trace.rpc_reply);
    j.Hist("rpc_queue_wait", trace.queue_waits);
    j.Int("fs_spans", trace.fs_spans).Int("fs_self", trace.fs_self);
    j.Int("disk_spans", trace.disk_spans).Int("disk_rpc", trace.disk_rpc);
    j.Int("traps", trace.traps).Int("trap_cycles", trace.trap_cycles);
    j.Int("call_cycles", trace.call_cycles).Int("covered_cycles", trace.covered_cycles);
    j.Close();
  }
  j.Close();
  return j.str();
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace") {
      a->trace = true;
    } else if (flag == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--calls" && has_value) {
      a->calls = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--first-episode" && has_value) {
      a->first_episode = std::atoi(argv[++i]);
    } else if (flag == "--episodes" && has_value) {
      a->episodes = std::atoi(argv[++i]);
    } else if (flag == "--system" && has_value) {
      a->system = argv[++i];
    } else {
      return false;
    }
  }
  Script probe;
  return Generate(a->workload, 1, 1, &probe) && a->calls > 0 && a->episodes >= 1 &&
         a->first_episode >= 0 &&
         (a->system == "wpos" || a->system == "mono" || a->system == "mono+wpos");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload docs|records|desktop --seed N --calls N --episodes N\n"
                 "          [--first-episode N] --system wpos|mono|mono+wpos [--trace]\n",
                 argv[0]);
    return 2;
  }
  // Servers parked in receive at halt are expected; keep stderr for errors.
  base::SetLogLevel(base::LogLevel::kError);
  // "mono+wpos" runs both in one process, mono first. Only the determinism
  // self-check uses it, to show what sharing a process does to WPOS.
  if (args.system != "wpos") {
    std::printf("%s\n", perfbench::RunSystem<bench::MonoSystem>("mono", args).c_str());
  }
  if (args.system != "mono") {
    std::printf("%s\n", perfbench::RunSystem<bench::WposSystem>("wpos", args).c_str());
  }
  return 0;
}
