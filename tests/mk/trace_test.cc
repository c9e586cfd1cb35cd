// Tracer contract tests: ring semantics, deterministic exports, and — the
// load-bearing property for every measurement in this repo — that tracing
// observes the simulation without charging a single simulated cycle.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mk/trace/exporters.h"

namespace mk {
namespace {

// Runs `ops` null RPCs (client sends 32 bytes, server replies empty) on a
// fresh kernel. Mirrors the bench_table2 workload so test and bench exercise
// the same span placement.
struct RpcRun {
  hw::CpuCounters final_counters;       // whole-run counters at halt
  hw::CpuCounters window;               // counter delta over the measured loop
  trace::Tracer::SpanStats rpc_spans;   // span delta over the measured loop
  std::string chrome_trace;
  std::string metrics_json;
};

RpcRun RunNullRpcs(bool traced, int ops, size_t trace_capacity = 64 * 1024) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  KernelConfig config;
  config.trace_capacity = trace_capacity;
  Kernel kernel(&machine, config);
  if (traced) {
    kernel.tracer().Enable();
  }
  Task* server_task = kernel.CreateTask("server");
  Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  kernel.CreateThread(server_task, "null-server", [&, recv = *recv](Env& env) {
    char buf[64];
    auto req = env.RpcReceive(recv, buf, sizeof(buf));
    while (req.ok()) {
      req = env.kernel().RpcReplyAndReceive(req->token, nullptr, 0, recv, buf, sizeof(buf));
    }
  });
  RpcRun out;
  kernel.CreateThread(client_task, "client", [&, send = *send](Env& env) {
    char payload[32] = {};
    char reply[32];
    for (int i = 0; i < 20; ++i) {  // warmup
      (void)env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
    }
    const trace::Tracer::SpanStats s0 = kernel.tracer().stats(trace::SpanKind::kRpc);
    const hw::CpuCounters c0 = kernel.Counters();
    for (int i = 0; i < ops; ++i) {
      (void)env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
    }
    out.window = kernel.Counters() - c0;
    const trace::Tracer::SpanStats s1 = kernel.tracer().stats(trace::SpanKind::kRpc);
    out.rpc_spans.count = s1.count - s0.count;
    out.rpc_spans.total = s1.total - s0.total;
    for (int p = 0; p < trace::kMaxSpanPhases; ++p) {
      out.rpc_spans.phases[p] = s1.phases[p] - s0.phases[p];
    }
    kernel.PortDestroy(*server_task, *recv);
  });
  kernel.Run();
  out.final_counters = kernel.Counters();
  std::ostringstream trace_out, metrics_out;
  trace::WriteChromeTrace(trace_out, kernel);
  trace::WriteMetricsJson(metrics_out, kernel);
  out.chrome_trace = trace_out.str();
  out.metrics_json = metrics_out.str();
  return out;
}

void ExpectSameCounters(const hw::CpuCounters& a, const hw::CpuCounters& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.bus_cycles, b.bus_cycles);
  EXPECT_EQ(a.icache_misses, b.icache_misses);
  EXPECT_EQ(a.dcache_misses, b.dcache_misses);
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
}

TEST(TraceRing, OverflowKeepsNewest) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  KernelConfig config;
  config.trace_capacity = 8;
  Kernel kernel(&machine, config);
  trace::Tracer& tracer = kernel.tracer();
  tracer.Enable();
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.Emit(trace::EventType::kInterrupt, i);
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.total_emitted(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // Oldest-first, and only the newest 8 survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].type, trace::EventType::kInterrupt);
    EXPECT_EQ(events[i].a, 12 + i);
  }
}

// The ring is allocated when tracing is enabled. Before that the tracer
// reports its configured capacity and holds nothing; afterwards it records
// and wraps as always.
TEST(TraceRing, RingAllocatedOnEnableRecordsAndWraps) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  KernelConfig config;
  config.trace_capacity = 8;
  Kernel kernel(&machine, config);
  trace::Tracer& tracer = kernel.tracer();
  tracer.Emit(trace::EventType::kInterrupt, 99);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
  tracer.Enable();
  for (uint64_t i = 0; i < 11; ++i) {
    tracer.Emit(trace::EventType::kInterrupt, i);
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.dropped(), 3u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 3 + i);
  }
}

TEST(TraceRing, DisabledTracerEmitsNothing) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  trace::Tracer& tracer = kernel.tracer();
  tracer.Emit(trace::EventType::kInterrupt, 1);
  EXPECT_EQ(tracer.Events().size(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
  EXPECT_EQ(tracer.BeginSpan(trace::SpanKind::kTrap, trace::EventType::kTrapCall), 0u);
}

TEST(TraceDeterminism, IdenticalRunsProduceByteIdenticalExports) {
  const RpcRun a = RunNullRpcs(/*traced=*/true, /*ops=*/50);
  const RpcRun b = RunNullRpcs(/*traced=*/true, /*ops=*/50);
  EXPECT_FALSE(a.chrome_trace.empty());
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceZeroCost, TracedRunMatchesUntracedExactly) {
  const RpcRun untraced = RunNullRpcs(/*traced=*/false, /*ops=*/50);
  const RpcRun traced = RunNullRpcs(/*traced=*/true, /*ops=*/50);
  ExpectSameCounters(traced.final_counters, untraced.final_counters);
  ExpectSameCounters(traced.window, untraced.window);
}

TEST(TraceSpans, SpanTotalsEqualCounterWindowExactly) {
  const RpcRun run = RunNullRpcs(/*traced=*/true, /*ops=*/50);
  EXPECT_EQ(run.rpc_spans.count, 50u);
  // The single global cycle clock means a client-side RPC span brackets
  // every cycle charged on the call's behalf: span totals must reproduce the
  // counter window with zero residue.
  ExpectSameCounters(run.rpc_spans.total, run.window);
  // Phases partition the span: client_entry + server + reply_return == total.
  hw::CpuCounters phase_sum = run.rpc_spans.phases[0];
  phase_sum += run.rpc_spans.phases[1];
  phase_sum += run.rpc_spans.phases[2];
  ExpectSameCounters(phase_sum, run.rpc_spans.total);
  // Every phase did real work.
  for (int p = 0; p < trace::kMaxSpanPhases; ++p) {
    EXPECT_GT(run.rpc_spans.phases[p].cycles, 0u) << "phase " << p;
  }
}

TEST(TraceExports, ChromeTraceShowsRpcPhases) {
  const RpcRun run = RunNullRpcs(/*traced=*/true, /*ops=*/5);
  EXPECT_NE(run.chrome_trace.find("\"name\":\"rpc\""), std::string::npos);
  EXPECT_NE(run.chrome_trace.find("client_entry"), std::string::npos);
  EXPECT_NE(run.chrome_trace.find("\"name\":\"server\""), std::string::npos);
  EXPECT_NE(run.chrome_trace.find("reply_return"), std::string::npos);
  EXPECT_NE(run.chrome_trace.find("process_name"), std::string::npos);
}

TEST(TraceMetrics, CountersHistogramsAndProfile) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  Task* task = kernel.CreateTask("app");
  kernel.CreateThread(task, "main", [&](Env& env) {
    for (int i = 0; i < 10; ++i) {
      (void)env.ThreadSelf();
    }
  });
  kernel.Run();
  trace::Tracer& tracer = kernel.tracer();
  const trace::Tracer::SpanStats traps = tracer.stats(trace::SpanKind::kTrap);
  EXPECT_EQ(traps.count, 10u);
  const trace::Histogram& hist = tracer.metrics().Hist("trap.cycles");
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_GT(hist.mean(), 0.0);
  EXPECT_GE(hist.PercentileBound(0.99), hist.min());
  // The flat profile resolves region names and counted the trap stub.
  bool saw_stub = false;
  for (const trace::Tracer::RegionProfile& region : tracer.FlatProfile()) {
    if (region.name == "ustub.thread_self") {
      saw_stub = true;
      EXPECT_GE(region.calls, 10u);
      EXPECT_GT(region.cycles, 0u);
    }
  }
  EXPECT_TRUE(saw_stub);
}

TEST(TraceMetrics, RingCapacityAccessor) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  KernelConfig config;
  config.trace_capacity = 123;
  Kernel kernel(&machine, config);
  EXPECT_EQ(kernel.tracer().capacity(), 123u);
}

}  // namespace
}  // namespace mk
