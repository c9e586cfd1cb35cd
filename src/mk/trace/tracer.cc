#include "src/mk/trace/tracer.h"

#include <algorithm>

#include "src/hw/code_layout.h"
#include "src/mk/scheduler.h"
#include "src/mk/task.h"
#include "src/mk/thread.h"

namespace mk {
namespace trace {

const char* EventName(EventType type) {
  switch (type) {
    case EventType::kThreadSwitch:
      return "thread_switch";
    case EventType::kThreadExit:
      return "thread_exit";
    case EventType::kTrapEnter:
      return "trap_enter";
    case EventType::kTrapExit:
      return "trap_exit";
    case EventType::kTrapCall:
      return "trap_call";
    case EventType::kTrapReturn:
      return "trap_return";
    case EventType::kRpcCall:
      return "rpc_call";
    case EventType::kRpcQueued:
      return "rpc_queued";
    case EventType::kRpcDispatch:
      return "rpc_dispatch";
    case EventType::kRpcReply:
      return "rpc_reply";
    case EventType::kRpcReturn:
      return "rpc_return";
    case EventType::kRpcRobustCall:
      return "rpc_robust_call";
    case EventType::kRpcRobustReturn:
      return "rpc_robust_return";
    case EventType::kApiCall:
      return "api_call";
    case EventType::kApiReturn:
      return "api_return";
    case EventType::kIpcSend:
      return "ipc_send";
    case EventType::kIpcSendDone:
      return "ipc_send_done";
    case EventType::kIpcReceive:
      return "ipc_receive";
    case EventType::kIpcReceiveDone:
      return "ipc_receive_done";
    case EventType::kVmFault:
      return "vm_fault";
    case EventType::kVmFaultDone:
      return "vm_fault_done";
    case EventType::kInterrupt:
      return "interrupt";
    case EventType::kServerDispatch:
      return "server_dispatch";
    case EventType::kServerDone:
      return "server_done";
    case EventType::kFaultInjected:
      return "fault_injected";
    case EventType::kTaskDeath:
      return "task_death";
    case EventType::kServerRestart:
      return "server_restart";
    case EventType::kSchedPreempt:
      return "sched_preempt";
    case EventType::kRpcShed:
      return "rpc_shed";
    case EventType::kWatchdogKill:
      return "watchdog_kill";
    case EventType::kFsCacheHit:
      return "fs_cache_hit";
    case EventType::kFsCacheInvalidate:
      return "fs_cache_invalidate";
    case EventType::kPagerWriteback:
      return "pager_writeback";
    case EventType::kVmObjectInvalidate:
      return "vm_object_invalidate";
    case EventType::kCount:
      break;
  }
  return "unknown";
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTrap:
      return "trap";
    case SpanKind::kRpc:
      return "rpc";
    case SpanKind::kIpcSend:
      return "ipc_send";
    case SpanKind::kIpcReceive:
      return "ipc_receive";
    case SpanKind::kVmFault:
      return "vm_fault";
    case SpanKind::kServerOp:
      return "server_op";
    case SpanKind::kRpcRobust:
      return "rpc_robust";
    case SpanKind::kApi:
      return "api";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

int SpanPhaseCount(SpanKind kind) { return kind == SpanKind::kRpc ? 3 : 1; }

const char* SpanPhaseName(SpanKind kind, int phase) {
  if (kind == SpanKind::kRpc) {
    switch (phase) {
      case 0:
        return "client_entry";
      case 1:
        return "server";
      case 2:
        return "reply_return";
      default:
        return nullptr;
    }
  }
  return phase == 0 ? SpanName(kind) : nullptr;
}

Tracer::Tracer(hw::Cpu* cpu, Scheduler* scheduler, size_t capacity)
    : cpu_(cpu), scheduler_(scheduler), capacity_(capacity == 0 ? 1 : capacity) {}

Tracer::~Tracer() {
  if (enabled_) {
    cpu_->set_execute_observer(nullptr);
  }
}

void Tracer::Enable() {
  if (enabled_) {
    return;
  }
  enabled_ = true;
  // Only a traced run emits, so only it pays for the ring.
  ring_.resize(capacity_);
  cpu_->set_execute_observer(
      [this](const hw::CodeRegion& region, uint64_t instructions, uint64_t cycles,
             uint64_t icache_misses) {
        RegionTotals& t = profile_[region.base];
        ++t.calls;
        t.instructions += instructions;
        t.cycles += cycles;
        t.icache_misses += icache_misses;
      });
}

void Tracer::Push(EventType type, uint64_t a, uint64_t b) {
  TraceEvent& e = ring_[ring_next_];
  ring_next_ = (ring_next_ + 1) % ring_.size();
  ++total_emitted_;
  e.type = type;
  e.cycle = cpu_->cycles();
  Thread* t = scheduler_->current();
  e.thread = t == nullptr ? 0 : t->id();
  e.task = t == nullptr ? 0 : t->task()->id();
  e.a = a;
  e.b = b;
}

void Tracer::Emit(EventType type, uint64_t a, uint64_t b) {
  if (!enabled_) {
    return;
  }
  Push(type, a, b);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  const size_t buffered =
      total_emitted_ < ring_.size() ? static_cast<size_t>(total_emitted_) : ring_.size();
  out.reserve(buffered);
  // Oldest event sits at ring_next_ once the ring has wrapped.
  const size_t start = total_emitted_ < ring_.size() ? 0 : ring_next_;
  for (size_t i = 0; i < buffered; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

uint64_t Tracer::BeginSpan(SpanKind kind, EventType begin_event, uint64_t b) {
  if (!enabled_) {
    return 0;
  }
  const uint64_t id = next_span_id_++;
  ActiveSpan& span = active_spans_[id];
  span.kind = kind;
  span.begin = cpu_->counters();
  span.phase_begin = span.begin;
  // Join the current thread's trace: parent = the innermost open span, a
  // fresh trace_id if the thread isn't working for any request yet. The
  // context then names this span so children (including spans opened by a
  // server this thread RPCs to) chain onto it.
  Thread* t = scheduler_->current();
  if (t != nullptr) {
    span.owner = t->id();
    span.parent = t->trace_ctx.span_id;
    span.trace_id = t->trace_ctx.trace_id != 0 ? t->trace_ctx.trace_id : next_trace_id_++;
    t->trace_ctx = TraceContext{span.trace_id, id};
  } else {
    span.trace_id = next_trace_id_++;
  }
  SpanMeta& meta = span_meta_[id];
  meta.kind = kind;
  meta.trace_id = span.trace_id;
  meta.parent = span.parent;
  meta.thread = t == nullptr ? 0 : t->id();
  meta.task = t == nullptr ? 0 : t->task()->id();
  meta.arg = b;
  meta.begin_cycle = cpu_->cycles();
  Push(begin_event, id, b);
  return id;
}

void Tracer::MarkPhase(uint64_t span_id, EventType phase_event, uint64_t b) {
  if (span_id == 0) {
    return;
  }
  auto it = active_spans_.find(span_id);
  if (it == active_spans_.end()) {
    return;
  }
  ActiveSpan& span = it->second;
  const hw::CpuCounters now = cpu_->counters();
  SpanStats& st = stats_[static_cast<int>(span.kind)];
  if (span.phase < kMaxSpanPhases) {
    st.phases[span.phase] += now - span.phase_begin;
  }
  ++span.phase;
  span.phase_begin = now;
  auto mit = span_meta_.find(span_id);
  if (mit != span_meta_.end()) {
    SpanMeta& meta = mit->second;
    if (phase_event == EventType::kRpcDispatch) {
      meta.dispatch_cycle = now.cycles;
      // Close the pending queue wait (0 when the rendezvous was direct —
      // the server was already parked in RpcReceive, so nothing queued).
      const uint64_t wait = meta.queued_cycle != 0 ? now.cycles - meta.queued_cycle : 0;
      metrics_.Hist("mk.rpc.queue_wait_cycles").Record(wait);
      if (!span.label.empty()) {
        metrics_.Hist("mk.rpc.queue_wait_cycles." + span.label).Record(wait);
      }
    } else if (phase_event == EventType::kRpcReply) {
      meta.reply_cycle = now.cycles;
    }
  }
  Push(phase_event, span_id, b);
}

void Tracer::MarkQueued(uint64_t span_id, EventType event, uint64_t b) {
  if (span_id == 0) {
    return;
  }
  auto it = span_meta_.find(span_id);
  if (it == span_meta_.end()) {
    return;
  }
  it->second.queued_cycle = cpu_->cycles();
  Push(event, span_id, b);
}

void Tracer::LabelSpan(uint64_t span_id, const std::string& label) {
  if (span_id == 0) {
    return;
  }
  auto it = active_spans_.find(span_id);
  if (it != active_spans_.end()) {
    it->second.label = label;
  }
  auto mit = span_meta_.find(span_id);
  if (mit != span_meta_.end()) {
    mit->second.label = label;
  }
}

void Tracer::EndSpan(uint64_t span_id, EventType end_event, uint64_t b) {
  if (span_id == 0) {
    return;
  }
  auto it = active_spans_.find(span_id);
  if (it == active_spans_.end()) {
    return;
  }
  ActiveSpan& span = it->second;
  const hw::CpuCounters now = cpu_->counters();
  SpanStats& st = stats_[static_cast<int>(span.kind)];
  if (span.phase < kMaxSpanPhases) {
    st.phases[span.phase] += now - span.phase_begin;
  }
  st.total += now - span.begin;
  ++st.count;
  const uint64_t total_cycles = now.cycles - span.begin.cycles;
  if (!span.label.empty()) {
    metrics_.Hist(std::string(SpanName(span.kind)) + ".cycles." + span.label).Record(total_cycles);
  } else {
    metrics_.Hist(std::string(SpanName(span.kind)) + ".cycles").Record(total_cycles);
  }
  auto mit = span_meta_.find(span_id);
  if (mit != span_meta_.end()) {
    SpanMeta& meta = mit->second;
    meta.end_cycle = now.cycles;
    meta.end_arg = b;
    meta.ended = true;
  }
  // Pop this span off its owner thread's context — but only if that thread
  // is still inside it (a server's context is rebound by the kernel between
  // requests, so a stale restore must not clobber the new binding).
  Thread* t = scheduler_->current();
  if (t != nullptr && t->id() == span.owner && t->trace_ctx.span_id == span_id) {
    t->trace_ctx = TraceContext{span.parent == 0 ? 0 : span.trace_id, span.parent};
  }
  active_spans_.erase(it);
  Push(end_event, span_id, b);
}

uint64_t Tracer::SpanTraceId(uint64_t span_id) const {
  auto it = span_meta_.find(span_id);
  return it == span_meta_.end() ? 0 : it->second.trace_id;
}

std::vector<Tracer::RegionProfile> Tracer::FlatProfile() const {
  std::vector<RegionProfile> out;
  out.reserve(profile_.size());
  for (const auto& [base, totals] : profile_) {
    RegionProfile p;
    p.name = hw::CodeLayout::Global().NameOf(base);
    p.calls = totals.calls;
    p.instructions = totals.instructions;
    p.cycles = totals.cycles;
    p.icache_misses = totals.icache_misses;
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const RegionProfile& a, const RegionProfile& b) {
    if (a.cycles != b.cycles) {
      return a.cycles > b.cycles;
    }
    return a.name < b.name;
  });
  return out;
}

}  // namespace trace
}  // namespace mk
