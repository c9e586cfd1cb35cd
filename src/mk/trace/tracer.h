// Kernel observability: event tracer, span profiler and metric registry.
//
// Everything here is host-side bookkeeping over the simulated machine — the
// tracer never executes simulated instructions, touches the modelled caches
// or advances the cycle clock, so enabling it cannot perturb measured
// numbers (tested by trace_test.cc's zero-perturbation case). Three layers:
//
//   1. Event ring: a fixed-capacity ring buffer of typed events (see
//      events.h) stamped with the simulated cycle clock and the current
//      thread/task. On overflow the oldest events are dropped.
//   2. Span profiler: per-operation spans (a trap, an RPC from client entry
//      through server dispatch to reply, a fault, a server-loop handler)
//      that capture hw::CpuCounters deltas per phase. Aggregated per span
//      kind, they reproduce the paper's Table 2 decomposition for every
//      operation of a workload; a CPU execute-observer additionally builds a
//      flat profile of code regions by cycles and I-cache misses.
//   3. Metrics: named counters / high-water gauges / log-scaled histograms
//      (per-server RPC latency, port queue depths) in a MetricRegistry.
//
// Exporters for Chrome trace-event JSON, a human-readable flat profile and
// a JSON metrics dump live in exporters.h.
#ifndef SRC_MK_TRACE_TRACER_H_
#define SRC_MK_TRACE_TRACER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/cpu.h"
#include "src/mk/ids.h"
#include "src/mk/trace/events.h"
#include "src/mk/trace/metrics.h"

namespace mk {

class Scheduler;
class Thread;

namespace trace {

struct TraceEvent {
  EventType type = EventType::kCount;
  uint64_t cycle = 0;
  ThreadId thread = 0;  // 0 = scheduler / no thread context
  TaskId task = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

class Tracer {
 public:
  Tracer(hw::Cpu* cpu, Scheduler* scheduler, size_t capacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Tracing starts disabled; while disabled every hook is a cheap no-op.
  // Enabling allocates the event ring and installs the CPU execute-observer
  // that feeds the flat profile.
  void Enable();
  bool enabled() const { return enabled_; }

  // --- Event ring ------------------------------------------------------------
  void Emit(EventType type, uint64_t a = 0, uint64_t b = 0);
  // Buffered events, oldest first.
  std::vector<TraceEvent> Events() const;
  uint64_t total_emitted() const { return total_emitted_; }
  uint64_t dropped() const { return total_emitted_ > capacity_ ? total_emitted_ - capacity_ : 0; }
  size_t capacity() const { return capacity_; }

  // --- Span profiler ---------------------------------------------------------
  // Begins a span, emitting `begin_event` (payload a = span id, b = `b`).
  // Returns 0 when disabled; 0 is a valid no-op span id everywhere below.
  //
  // Causal linkage: the new span joins the current thread's TraceContext —
  // it becomes a child of the context's open span (parent 0 = a root span,
  // which also starts a fresh trace_id) — and the context then points at it
  // until the matching EndSpan restores the parent. The kernel's RPC paths
  // carry the context across rendezvous (see Kernel::DeliverRpcToServer),
  // so spans opened inside a server handler chain onto the caller's trace.
  uint64_t BeginSpan(SpanKind kind, EventType begin_event, uint64_t b = 0);
  // Closes the current phase and starts the next one. An RPC span's
  // kRpcDispatch boundary additionally closes any pending queue wait (see
  // MarkQueued) into the mk.rpc.queue_wait_cycles histograms.
  void MarkPhase(uint64_t span, EventType phase_event, uint64_t b = 0);
  // Records that the operation behind `span` was parked in a port's
  // waiting_clients queue at the current cycle, emitting `event`. The wait
  // ends at the span's next MarkPhase (the dispatch boundary).
  void MarkQueued(uint64_t span, EventType event, uint64_t b = 0);
  // Attaches a label (e.g. the server task name); selects the latency
  // histogram the span's total cycles are recorded into at EndSpan.
  void LabelSpan(uint64_t span, const std::string& label);
  void EndSpan(uint64_t span, EventType end_event, uint64_t b = 0);

  struct SpanStats {
    uint64_t count = 0;
    hw::CpuCounters total;
    std::array<hw::CpuCounters, kMaxSpanPhases> phases;
  };
  const SpanStats& stats(SpanKind kind) const { return stats_[static_cast<int>(kind)]; }

  // --- Causal span registry ---------------------------------------------------
  // Everything the request-tree / flow exporters need about a span, kept for
  // the tracer's whole lifetime (unlike the event ring, which drops oldest).
  struct SpanMeta {
    SpanKind kind = SpanKind::kCount;
    uint64_t trace_id = 0;
    uint64_t parent = 0;       // parent span id, 0 = root of its trace
    ThreadId thread = 0;       // thread that opened the span
    TaskId task = 0;
    std::string label;
    uint64_t arg = 0;          // begin-event payload (port id, op code, fd)
    uint64_t end_arg = 0;      // end-event payload (completion status)
    uint64_t begin_cycle = 0;
    uint64_t end_cycle = 0;    // 0 while the span is still open
    bool ended = false;
    // RPC hop boundaries: 0 = never reached. queued/dispatch/reply bracket
    // the three latency buckets (client send, port queue wait, handler).
    uint64_t queued_cycle = 0;
    uint64_t dispatch_cycle = 0;
    uint64_t reply_cycle = 0;
  };
  // Spans by id (begin order). Includes still-open spans (ended == false).
  const std::map<uint64_t, SpanMeta>& spans() const { return span_meta_; }
  // Trace id a span belongs to; 0 for unknown/no-op spans.
  uint64_t SpanTraceId(uint64_t span_id) const;

  // --- Flat profile ----------------------------------------------------------
  struct RegionProfile {
    std::string name;
    uint64_t calls = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t icache_misses = 0;
  };
  // Per-code-region execution totals, sorted by cycles (descending; ties by
  // name so the order is deterministic).
  std::vector<RegionProfile> FlatProfile() const;

  // --- Metrics ---------------------------------------------------------------
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

 private:
  struct ActiveSpan {
    SpanKind kind = SpanKind::kCount;
    int phase = 0;
    hw::CpuCounters begin;
    hw::CpuCounters phase_begin;
    std::string label;
    ThreadId owner = 0;  // thread whose TraceContext EndSpan restores
    uint64_t parent = 0;
    uint64_t trace_id = 0;
  };
  struct RegionTotals {
    uint64_t calls = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t icache_misses = 0;
  };

  void Push(EventType type, uint64_t a, uint64_t b);

  hw::Cpu* cpu_;
  Scheduler* scheduler_;
  bool enabled_ = false;

  size_t capacity_;
  std::vector<TraceEvent> ring_;  // capacity_ events once enabled, empty before
  size_t ring_next_ = 0;          // next slot to overwrite
  uint64_t total_emitted_ = 0;  // events ever emitted (>= buffered)

  uint64_t next_span_id_ = 1;
  uint64_t next_trace_id_ = 1;
  std::unordered_map<uint64_t, ActiveSpan> active_spans_;
  std::map<uint64_t, SpanMeta> span_meta_;
  std::array<SpanStats, static_cast<int>(SpanKind::kCount)> stats_{};

  // Keyed by region base address (stable: the code layout is append-only
  // and process-global); names resolved at FlatProfile() time.
  std::map<hw::PhysAddr, RegionTotals> profile_;

  MetricRegistry metrics_;
};

// RAII span for functions with many exit paths: begins on construction,
// ends (emitting `end_event`) when the scope unwinds. Declare it first in
// the function so the span closes after every other local — the counter
// delta then covers the whole call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanKind kind, EventType begin_event, EventType end_event,
             uint64_t b = 0)
      : tracer_(tracer), end_event_(end_event), id_(tracer.BeginSpan(kind, begin_event, b)) {}
  ~ScopedSpan() { tracer_.EndSpan(id_, end_event_, end_b_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  // Payload for the end event (e.g. a status), set before returning.
  void set_end_payload(uint64_t b) { end_b_ = b; }

 private:
  Tracer& tracer_;
  EventType end_event_;
  uint64_t id_;
  uint64_t end_b_ = 0;
};

}  // namespace trace
}  // namespace mk

#endif  // SRC_MK_TRACE_TRACER_H_
