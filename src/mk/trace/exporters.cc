#include "src/mk/trace/exporters.h"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mk/trace/tracer.h"

namespace mk {
namespace trace {

namespace {

// Microseconds (the trace-event "ts" unit) from simulated cycles, printed
// with fixed precision so exports are byte-stable.
std::string TsUs(uint64_t cycles, uint64_t mhz) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(cycles) / static_cast<double>(mhz));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Classification of ring events into span roles for slice reconstruction.
bool SpanBeginKind(EventType t, SpanKind* kind) {
  switch (t) {
    case EventType::kTrapCall:
      *kind = SpanKind::kTrap;
      return true;
    case EventType::kRpcCall:
      *kind = SpanKind::kRpc;
      return true;
    case EventType::kIpcSend:
      *kind = SpanKind::kIpcSend;
      return true;
    case EventType::kIpcReceive:
      *kind = SpanKind::kIpcReceive;
      return true;
    case EventType::kVmFault:
      *kind = SpanKind::kVmFault;
      return true;
    case EventType::kServerDispatch:
      *kind = SpanKind::kServerOp;
      return true;
    case EventType::kRpcRobustCall:
      *kind = SpanKind::kRpcRobust;
      return true;
    case EventType::kApiCall:
      *kind = SpanKind::kApi;
      return true;
    default:
      return false;
  }
}

bool IsSpanPhase(EventType t) { return t == EventType::kRpcDispatch || t == EventType::kRpcReply; }

bool IsSpanEnd(EventType t) {
  switch (t) {
    case EventType::kTrapReturn:
    case EventType::kRpcReturn:
    case EventType::kIpcSendDone:
    case EventType::kIpcReceiveDone:
    case EventType::kVmFaultDone:
    case EventType::kServerDone:
    case EventType::kRpcRobustReturn:
    case EventType::kApiReturn:
      return true;
    default:
      return false;
  }
}

void WriteCounters(std::ostream& os, const hw::CpuCounters& c) {
  os << "{\"instructions\":" << c.instructions << ",\"cycles\":" << c.cycles
     << ",\"bus_cycles\":" << c.bus_cycles << ",\"icache_misses\":" << c.icache_misses
     << ",\"dcache_misses\":" << c.dcache_misses << ",\"tlb_misses\":" << c.tlb_misses
     << ",\"data_accesses\":" << c.data_accesses << ",\"uncached_accesses\":" << c.uncached_accesses
     << "}";
}

}  // namespace

void WriteChromeTrace(std::ostream& os, Kernel& kernel) {
  Tracer& tracer = kernel.tracer();
  const uint64_t mhz = kernel.cpu().config().mhz;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& json) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n" << json;
  };

  // Process/thread naming metadata so Perfetto shows task and thread names.
  for (const auto& task : kernel.tasks()) {
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + std::to_string(task->id()) +
         ",\"args\":{\"name\":\"" + JsonEscape(task->name()) + "\"}}");
    for (const Thread* t : task->threads()) {
      emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(task->id()) +
           ",\"tid\":" + std::to_string(t->id()) + ",\"args\":{\"name\":\"" +
           JsonEscape(t->name()) + "\"}}");
    }
  }

  struct OpenSpan {
    SpanKind kind;
    uint64_t begin_cycle = 0;
    ThreadId tid = 0;
    TaskId pid = 0;
    uint64_t b = 0;
    // Phase boundary cycles (phase i spans boundary[i] .. boundary[i+1]).
    std::vector<uint64_t> boundaries;
  };
  std::map<uint64_t, OpenSpan> open;

  for (const TraceEvent& e : tracer.Events()) {
    SpanKind kind;
    if (SpanBeginKind(e.type, &kind)) {
      OpenSpan span;
      span.kind = kind;
      span.begin_cycle = e.cycle;
      span.tid = e.thread;
      span.pid = e.task;
      span.b = e.b;
      span.boundaries.push_back(e.cycle);
      open[e.a] = span;
    } else if (IsSpanPhase(e.type)) {
      auto it = open.find(e.a);
      if (it != open.end()) {
        it->second.boundaries.push_back(e.cycle);
      }
    } else if (IsSpanEnd(e.type)) {
      auto it = open.find(e.a);
      if (it == open.end()) {
        continue;  // begin fell off the ring
      }
      OpenSpan& span = it->second;
      span.boundaries.push_back(e.cycle);
      const std::string ids =
          ",\"pid\":" + std::to_string(span.pid) + ",\"tid\":" + std::to_string(span.tid);
      emit("{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"" + std::string(SpanName(span.kind)) +
           "\",\"ts\":" + TsUs(span.begin_cycle, mhz) +
           ",\"dur\":" + TsUs(e.cycle - span.begin_cycle, mhz) + ids +
           ",\"args\":{\"span\":" + std::to_string(e.a) + ",\"arg\":" + std::to_string(span.b) +
           "}}");
      for (size_t i = 0; i + 1 < span.boundaries.size(); ++i) {
        const char* phase = SpanPhaseName(span.kind, static_cast<int>(i));
        if (phase == nullptr || span.boundaries.size() <= 2) {
          break;  // single-phase spans need no sub-slice
        }
        emit("{\"ph\":\"X\",\"cat\":\"phase\",\"name\":\"" + std::string(phase) +
             "\",\"ts\":" + TsUs(span.boundaries[i], mhz) +
             ",\"dur\":" + TsUs(span.boundaries[i + 1] - span.boundaries[i], mhz) + ids +
             ",\"args\":{\"span\":" + std::to_string(e.a) + "}}");
      }
      open.erase(it);
    } else {
      // Instant event.
      emit("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"event\",\"name\":\"" +
           std::string(EventName(e.type)) + "\",\"ts\":" + TsUs(e.cycle, mhz) +
           ",\"pid\":" + std::to_string(e.task) + ",\"tid\":" + std::to_string(e.thread) +
           ",\"args\":{\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b) + "}}");
    }
  }

  // Flow arrows: one "s" -> "f" pair per span whose parent lives on another
  // thread, drawn from the span registry (which, unlike the ring, never
  // drops), so Perfetto connects a client's call slice to the server's
  // handler slice and renders each trace as one causal chain.
  const std::map<uint64_t, Tracer::SpanMeta>& metas = tracer.spans();
  for (const auto& [id, meta] : metas) {
    if (meta.parent == 0) {
      continue;
    }
    auto pit = metas.find(meta.parent);
    if (pit == metas.end() || pit->second.thread == meta.thread) {
      continue;
    }
    const std::string common = ",\"cat\":\"causal\",\"name\":\"trace_" +
                               std::to_string(meta.trace_id) +
                               "\",\"id\":" + std::to_string(id) +
                               ",\"ts\":" + TsUs(meta.begin_cycle, mhz);
    emit("{\"ph\":\"s\"" + common + ",\"pid\":" + std::to_string(pit->second.task) +
         ",\"tid\":" + std::to_string(pit->second.thread) + "}");
    emit("{\"ph\":\"f\",\"bp\":\"e\"" + common + ",\"pid\":" + std::to_string(meta.task) +
         ",\"tid\":" + std::to_string(meta.thread) + "}");
  }
  os << "\n]}\n";
}

void WriteMetricsJson(std::ostream& os, Kernel& kernel) {
  Tracer& tracer = kernel.tracer();
  const MetricRegistry& m = tracer.metrics();
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : m.counters()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : m.gauges()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : m.hists()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %" PRIu64 ", \"sum\": %" PRIu64 ", \"min\": %" PRIu64
                  ", \"max\": %" PRIu64 ", \"mean\": %.2f, \"p50\": %" PRIu64 ", \"p99\": %" PRIu64
                  "}",
                  hist.count(), hist.sum(), hist.min(), hist.max(), hist.mean(),
                  hist.PercentileBound(50), hist.PercentileBound(99));
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << buf;
    first = false;
  }
  os << "\n  },\n  \"spans\": {";
  first = true;
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    const Tracer::SpanStats& st = tracer.stats(kind);
    if (st.count == 0) {
      continue;
    }
    os << (first ? "" : ",") << "\n    \"" << SpanName(kind) << "\": {\"count\": " << st.count
       << ", \"total\": ";
    WriteCounters(os, st.total);
    os << ", \"phases\": {";
    for (int p = 0; p < SpanPhaseCount(kind); ++p) {
      os << (p == 0 ? "" : ", ") << "\"" << SpanPhaseName(kind, p) << "\": ";
      WriteCounters(os, st.phases[p]);
    }
    os << "}}";
    first = false;
  }
  os << "\n  },\n  \"cpu\": ";
  WriteCounters(os, kernel.Counters());
  os << ",\n  \"trace\": {\"emitted\": " << tracer.total_emitted()
     << ", \"dropped\": " << tracer.dropped() << "}\n}\n";
}

void WriteRequestTrees(std::ostream& os, Kernel& kernel) {
  Tracer& tracer = kernel.tracer();
  const std::map<uint64_t, Tracer::SpanMeta>& metas = tracer.spans();

  std::map<TaskId, std::string> task_names;
  for (const auto& task : kernel.tasks()) {
    task_names[task->id()] = task->name();
  }

  // Tree shape: children in span-id (begin) order; roots grouped per trace.
  // Everything iterated here is an ordered map keyed by ids the tracer
  // assigns deterministically, so the report is byte-stable across runs.
  std::map<uint64_t, std::vector<uint64_t>> children;
  std::map<uint64_t, std::vector<uint64_t>> trace_roots;
  for (const auto& [id, meta] : metas) {
    if (meta.parent != 0 && metas.find(meta.parent) != metas.end()) {
      children[meta.parent].push_back(id);
    } else {
      trace_roots[meta.trace_id].push_back(id);
    }
  }

  const auto total_cycles = [&](const Tracer::SpanMeta& m) {
    return m.ended ? m.end_cycle - m.begin_cycle : uint64_t{0};
  };

  // Subtree span count, for the per-trace header line.
  const std::function<size_t(uint64_t)> count_subtree = [&](uint64_t id) {
    size_t n = 1;
    auto cit = children.find(id);
    if (cit != children.end()) {
      for (uint64_t c : cit->second) {
        n += count_subtree(c);
      }
    }
    return n;
  };

  // `critical` marks the hop chain that bounds the request's latency: from
  // every critical node, the child with the largest total is critical too.
  const std::function<void(uint64_t, int, bool)> print_span = [&](uint64_t id, int depth,
                                                                  bool critical) {
    const Tracer::SpanMeta& meta = metas.at(id);
    for (int i = 0; i < depth; ++i) {
      os << "  ";
    }
    os << (critical ? "* " : "- ") << SpanName(meta.kind);
    if (!meta.label.empty()) {
      os << " [" << meta.label << "]";
    }
    os << " span=" << id;
    auto tn = task_names.find(meta.task);
    os << " task=" << (tn != task_names.end() ? tn->second : std::to_string(meta.task));
    if (!meta.ended) {
      os << " OPEN";
    } else {
      os << " total=" << total_cycles(meta);
    }
    // Per-hop latency buckets of an RPC span, from its boundary cycles:
    // begin -> (queued) -> dispatch -> reply -> end. Error calls may never
    // reach a boundary; print only the buckets that exist.
    if (meta.kind == SpanKind::kRpc && meta.dispatch_cycle != 0) {
      const uint64_t send_end = meta.queued_cycle != 0 ? meta.queued_cycle : meta.dispatch_cycle;
      os << " client_send=" << send_end - meta.begin_cycle;
      os << " queue_wait="
       << (meta.queued_cycle != 0 ? meta.dispatch_cycle - meta.queued_cycle : 0);
      if (meta.reply_cycle != 0) {
        os << " server=" << meta.reply_cycle - meta.dispatch_cycle;
        if (meta.ended) {
          os << " reply_return=" << meta.end_cycle - meta.reply_cycle;
        }
      }
    }
    if (meta.ended && meta.end_arg != 0) {
      os << " status=" << meta.end_arg;
    }
    os << "\n";
    auto cit = children.find(id);
    if (cit == children.end()) {
      return;
    }
    // The critical child: largest total, earliest span id breaking ties.
    uint64_t crit_child = 0;
    uint64_t crit_total = 0;
    for (uint64_t c : cit->second) {
      const uint64_t t = total_cycles(metas.at(c));
      if (crit_child == 0 || t > crit_total) {
        crit_child = c;
        crit_total = t;
      }
    }
    for (uint64_t c : cit->second) {
      print_span(c, depth + 1, critical && c == crit_child);
    }
  };

  os << "=== causal request trees (cycles; * = critical path) ===\n";
  for (const auto& [trace_id, roots] : trace_roots) {
    size_t spans = 0;
    uint64_t cycles = 0;
    for (uint64_t r : roots) {
      spans += count_subtree(r);
      cycles += total_cycles(metas.at(r));
    }
    os << "trace " << trace_id << ": " << spans << " span" << (spans == 1 ? "" : "s") << ", "
       << cycles << " cycles\n";
    for (uint64_t r : roots) {
      print_span(r, 1, true);
    }
  }
}

}  // namespace trace
}  // namespace mk
