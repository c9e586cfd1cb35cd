// Fault injector contract tests. The two load-bearing properties:
//   1. Determinism — the same seed replays the same campaign byte for byte:
//      same fire schedule, same trace events, same cycle counters, same
//      client-visible statuses.
//   2. Zero cost when idle — with the injector disabled (or enabled but
//      never firing) the simulation's counters are byte-identical to a build
//      that never heard of fault injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"

namespace mk {
namespace {

constexpr uint32_t kEchoOp = 1;
constexpr uint64_t kDeadlineNs = 5'000'000;  // 5 simulated ms per call

struct EchoRequest {
  uint32_t op = kEchoOp;
  uint32_t value = 0;
};

// An echo server on `recv` that hosts the kServerHandlerEntry fault point and
// charges its own loop and stub images, as every server does.
std::shared_ptr<ServerLoop> StartEcho(Kernel& kernel, Task* task, PortName recv) {
  const hw::CodeRegion stub = hw::DefineKernelCode("stub.echo", Costs::kRpcServerStub);
  const hw::CodeRegion loop_code = hw::DefineKernelCode("loop.echo", Costs::kRpcServerLoop);
  auto loop = std::make_shared<ServerLoop>(recv, "echo");
  kernel.CreateThread(task, "echo", [loop, stub, loop_code](Env& env) {
    loop->Run<EchoRequest>(env, [l = loop.get(), stub, loop_code](
                                    Env& env, const RpcRequest& rpc, const EchoRequest& req,
                                    const uint8_t*, uint32_t) {
      env.kernel().cpu().Execute(loop_code);
      env.kernel().cpu().Execute(stub);
      if (l->EnterHandler(env, rpc)) {
        env.RpcReply(rpc.token, &req, rpc.req_len);
      }
    });
  });
  return loop;
}

struct EchoRun {
  std::vector<fault::FiredFault> log;
  std::vector<trace::TraceEvent> events;
  hw::CpuCounters counters{};
  std::vector<base::Status> statuses;
  uint32_t invariant_violations = 0;
};

// Runs `ops` echo RPCs against a ServerLoop server, with `configure` applied
// to the fresh kernel before any thread runs (arm the injector there).
EchoRun RunEchoWorkload(int ops, const std::function<void(Kernel&)>& configure) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  if (configure) {
    configure(kernel);
  }
  Task* server_task = kernel.CreateTask("server");
  Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  auto loop = StartEcho(kernel, server_task, *recv);
  EchoRun out;
  kernel.CreateThread(client_task, "client", [&, send = *send, loop](Env& env) {
    for (int i = 0; i < ops; ++i) {
      uint32_t req[2] = {kEchoOp, static_cast<uint32_t>(i)};
      uint32_t reply[2] = {};
      out.statuses.push_back(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply), nullptr,
                                         nullptr, nullptr, 0, nullptr, kDeadlineNs));
    }
    loop->Stop();
  });
  kernel.Run();
  out.log = kernel.faults().log();
  out.events = kernel.tracer().Events();
  out.counters = kernel.Counters();
  out.invariant_violations = kernel.CheckInvariants();
  return out;
}

void ExpectIdenticalCounters(const hw::CpuCounters& a, const hw::CpuCounters& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.bus_cycles, b.bus_cycles);
  EXPECT_EQ(a.icache_misses, b.icache_misses);
  EXPECT_EQ(a.dcache_misses, b.dcache_misses);
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.data_accesses, b.data_accesses);
  EXPECT_EQ(a.uncached_accesses, b.uncached_accesses);
}

void ExpectIdenticalEvents(const std::vector<trace::TraceEvent>& a,
                           const std::vector<trace::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "event " << i;
    EXPECT_EQ(a[i].cycle, b[i].cycle) << "event " << i;
    EXPECT_EQ(a[i].thread, b[i].thread) << "event " << i;
    EXPECT_EQ(a[i].task, b[i].task) << "event " << i;
    EXPECT_EQ(a[i].a, b[i].a) << "event " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "event " << i;
  }
}

TEST(FaultInjectorTest, SameSeedReplaysIdenticalCampaign) {
  const auto configure = [](Kernel& kernel) {
    kernel.faults().Enable(7);
    kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kTransientError,
                        30);
  };
  const EchoRun a = RunEchoWorkload(40, configure);
  const EchoRun b = RunEchoWorkload(40, configure);
  EXPECT_EQ(a.invariant_violations, 0u);
  EXPECT_GT(a.log.size(), 0u) << "a 30% arming over 40 ops should fire";
  ASSERT_EQ(a.log.size(), b.log.size());
  for (size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].point, b.log[i].point);
    EXPECT_EQ(a.log[i].mode, b.log[i].mode);
    EXPECT_EQ(a.log[i].seq, b.log[i].seq);
  }
  EXPECT_EQ(a.statuses, b.statuses);
  ExpectIdenticalCounters(a.counters, b.counters);
  ExpectIdenticalEvents(a.events, b.events);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  const EchoRun a = RunEchoWorkload(40, [](Kernel& kernel) {
    kernel.faults().Enable(7);
    kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kTransientError,
                        50);
  });
  const EchoRun b = RunEchoWorkload(40, [](Kernel& kernel) {
    kernel.faults().Enable(8);
    kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kTransientError,
                        50);
  });
  // 40 independent 50% draws from two different streams: the probability of
  // an identical outcome pattern is 2^-40.
  EXPECT_NE(a.statuses, b.statuses);
}

TEST(FaultInjectorTest, IdleInjectorPerturbsNothing) {
  // Run A never touches the injector. Run B enables it and arms a point at
  // 0% — the full decision machinery runs (including RNG draws) but nothing
  // fires. Counters and trace must be byte-identical: the injector is
  // host-side only and charges zero simulated cycles.
  const EchoRun a = RunEchoWorkload(40, nullptr);
  const EchoRun b = RunEchoWorkload(40, [](Kernel& kernel) {
    kernel.faults().Enable(5);
    kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kTransientError,
                        0);
    kernel.faults().Arm(fault::FaultPoint::kRpcReply, fault::FaultMode::kDropReply, 0);
    kernel.faults().Arm(fault::FaultPoint::kMessageCopy, fault::FaultMode::kTransientError, 0);
  });
  EXPECT_TRUE(b.log.empty());
  for (const base::Status st : b.statuses) {
    EXPECT_EQ(st, base::Status::kOk);
  }
  ExpectIdenticalCounters(a.counters, b.counters);
  ExpectIdenticalEvents(a.events, b.events);
}

TEST(FaultInjectorTest, TransientErrorSurfacesAsBusy) {
  const EchoRun run = RunEchoWorkload(5, [](Kernel& kernel) {
    kernel.faults().Enable(3);
    kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kTransientError,
                        100, /*max_fires=*/2);
  });
  ASSERT_EQ(run.statuses.size(), 5u);
  EXPECT_EQ(run.statuses[0], base::Status::kBusy);
  EXPECT_EQ(run.statuses[1], base::Status::kBusy);
  EXPECT_EQ(run.statuses[2], base::Status::kOk);
  EXPECT_EQ(run.statuses[3], base::Status::kOk);
  EXPECT_EQ(run.statuses[4], base::Status::kOk);
  EXPECT_EQ(run.log.size(), 2u);
  EXPECT_EQ(run.invariant_violations, 0u);
}

TEST(FaultInjectorTest, MessageCopyFaultFailsBeforeDelivery) {
  const EchoRun run = RunEchoWorkload(3, [](Kernel& kernel) {
    kernel.faults().Enable(3);
    kernel.faults().Arm(fault::FaultPoint::kMessageCopy, fault::FaultMode::kTransientError, 100,
                        /*max_fires=*/1);
  });
  ASSERT_EQ(run.statuses.size(), 3u);
  EXPECT_EQ(run.statuses[0], base::Status::kBusy);
  EXPECT_EQ(run.statuses[1], base::Status::kOk);
  EXPECT_EQ(run.statuses[2], base::Status::kOk);
  EXPECT_EQ(run.invariant_violations, 0u);
}

TEST(FaultInjectorTest, DroppedReplyTimesOutThenRecovers) {
  const EchoRun run = RunEchoWorkload(3, [](Kernel& kernel) {
    kernel.faults().Enable(3);
    kernel.faults().Arm(fault::FaultPoint::kRpcReply, fault::FaultMode::kDropReply, 100,
                        /*max_fires=*/1);
  });
  ASSERT_EQ(run.statuses.size(), 3u);
  EXPECT_EQ(run.statuses[0], base::Status::kTimedOut);
  EXPECT_EQ(run.statuses[1], base::Status::kOk);
  EXPECT_EQ(run.statuses[2], base::Status::kOk);
  EXPECT_EQ(run.invariant_violations, 0u);
}

TEST(FaultInjectorTest, CrashAtHandlerEntryFailsEveryCaller) {
  const EchoRun run = RunEchoWorkload(3, [](Kernel& kernel) {
    kernel.faults().Enable(3);
    kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kCrashTask, 100,
                        /*max_fires=*/1);
  });
  ASSERT_EQ(run.statuses.size(), 3u);
  // The in-flight caller fails when the task dies; later callers hit the
  // dead port directly.
  EXPECT_EQ(run.statuses[0], base::Status::kPortDead);
  EXPECT_EQ(run.statuses[1], base::Status::kPortDead);
  EXPECT_EQ(run.statuses[2], base::Status::kPortDead);
  EXPECT_EQ(run.invariant_violations, 0u);
}

// kDelayReply slows the handler without breaking it: every call still
// completes kOk, but the delayed ones take at least the injector's minimum
// simulated delay longer than an undelayed echo.
TEST(FaultInjectorTest, DelayReplySlowsButCompletes) {
  const EchoRun clean = RunEchoWorkload(4, nullptr);
  const EchoRun delayed = RunEchoWorkload(4, [](Kernel& kernel) {
    kernel.faults().Enable(3);
    kernel.faults().ArmDelay(fault::FaultPoint::kServerHandlerEntry, 500'000, 2'000'000, 100);
  });
  for (const base::Status st : delayed.statuses) {
    EXPECT_EQ(st, base::Status::kOk) << "a delayed server still answers";
  }
  EXPECT_EQ(delayed.log.size(), 4u);
  EXPECT_EQ(delayed.invariant_violations, 0u);
  // Wall time: every op gained at least the minimum injected delay.
  EXPECT_GT(delayed.counters.cycles, clean.counters.cycles);
}

// ArmDelay draws are part of the seeded stream: same seed, same delays.
TEST(FaultInjectorTest, DelayDrawsReplayWithSeed) {
  const auto configure = [](Kernel& kernel) {
    kernel.faults().Enable(11);
    kernel.faults().ArmDelay(fault::FaultPoint::kServerHandlerEntry, 100'000, 5'000'000, 60);
  };
  const EchoRun a = RunEchoWorkload(20, configure);
  const EchoRun b = RunEchoWorkload(20, configure);
  ASSERT_EQ(a.log.size(), b.log.size());
  ExpectIdenticalCounters(a.counters, b.counters);
  ExpectIdenticalEvents(a.events, b.events);
}

// kStallTask wedges the serving thread without killing the task: the caller
// (and every queued caller) blocks until something terminates the task. With
// a per-call deadline the client sees kTimedOut — alive-but-wedged looks
// exactly like a dropped reply from the outside, which is the point.
TEST(FaultInjectorTest, StallTaskWedgesUntilTerminated) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.faults().Enable(3);
  kernel.faults().Arm(fault::FaultPoint::kServerHandlerEntry, fault::FaultMode::kStallTask, 100,
                      /*max_fires=*/1);
  Task* server_task = kernel.CreateTask("server");
  Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  auto loop = StartEcho(kernel, server_task, *recv);
  std::vector<base::Status> statuses;
  kernel.CreateThread(client_task, "client", [&, send = *send](Env& env) {
    uint32_t req[2] = {kEchoOp, 0};
    uint32_t reply[2] = {};
    // First call wedges the server; the deadline, not a reply, ends it.
    statuses.push_back(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply), nullptr, nullptr,
                                   nullptr, 0, nullptr, kDeadlineNs));
    // The server is wedged, not dead: a second bounded call times out too.
    statuses.push_back(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply), nullptr, nullptr,
                                   nullptr, 0, nullptr, kDeadlineNs));
    // Watchdog stand-in: terminate the wedged task; now the port is dead.
    env.kernel().TerminateTask(server_task);
    statuses.push_back(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply), nullptr, nullptr,
                                   nullptr, 0, nullptr, kDeadlineNs));
  });
  EXPECT_EQ(kernel.Run(), 0u);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0], base::Status::kTimedOut);
  EXPECT_EQ(statuses[1], base::Status::kTimedOut);
  EXPECT_EQ(statuses[2], base::Status::kPortDead);
  EXPECT_EQ(kernel.CheckInvariants(), 0u);
}

// RpcCallRobust turns a dropped reply into a transparent retry: the first
// attempt times out, the resolver re-supplies the port, the retry succeeds.
TEST(FaultInjectorTest, RobustCallRidesThroughDroppedReply) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.faults().Enable(3);
  kernel.faults().Arm(fault::FaultPoint::kRpcReply, fault::FaultMode::kDropReply, 100,
                      /*max_fires=*/1);
  Task* server_task = kernel.CreateTask("server");
  Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  auto loop = StartEcho(kernel, server_task, *recv);
  kernel.CreateThread(client_task, "client", [&, send = *send, loop](Env& env) {
    PortName cached = send;
    const PortResolver resolver = [send](Env&) -> base::Result<PortName> { return send; };
    RobustCallOptions opts;
    opts.attempt_timeout_ns = kDeadlineNs;
    uint32_t req[2] = {kEchoOp, 99};
    uint32_t reply[2] = {};
    EXPECT_EQ(RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply), opts),
              base::Status::kOk);
    EXPECT_EQ(reply[1], 99u);
    loop->Stop();
  });
  EXPECT_EQ(kernel.Run(), 0u);
  EXPECT_EQ(kernel.faults().total_fires(), 1u);
  EXPECT_EQ(kernel.CheckInvariants(), 0u);
}

// The kRpcReply fault point, every mode, on both server-side reply paths: a
// reply sent by token with Kernel::RpcReply, and a reply recorded with
// ServerLoop::Reply that leaves in the loop's RpcReplyAndReceive trap. The
// faulted call's status, whether the server lives on to answer a second
// call, and the kernel's invariants must not depend on the path.
struct ReplyFaultCase {
  fault::FaultMode mode;
  base::Status caller;  // status of the call whose reply the fault hit
  bool keeps_serving;   // the next call is answered rather than failed kPortDead
};

const ReplyFaultCase kReplyFaultCases[] = {
    {fault::FaultMode::kDropReply, base::Status::kTimedOut, true},
    {fault::FaultMode::kCrashTask, base::Status::kPortDead, false},
    {fault::FaultMode::kKillPort, base::Status::kPortDead, false},
    {fault::FaultMode::kTransientError, base::Status::kBusy, true},
    {fault::FaultMode::kStallTask, base::Status::kOk, true},
    {fault::FaultMode::kDelayReply, base::Status::kOk, true},
};

class ReplyFaultTest : public ::testing::TestWithParam<std::tuple<ReplyFaultCase, bool>> {};

TEST_P(ReplyFaultTest, CallerStatusAndServerFateMatchTheMode) {
  const auto& [fault_case, loop_reply] = GetParam();
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.faults().Enable(3);
  kernel.faults().Arm(fault::FaultPoint::kRpcReply, fault_case.mode, 100, /*max_fires=*/1);
  Task* server_task = kernel.CreateTask("server");
  Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  auto loop = std::make_shared<ServerLoop>(*recv, "echo");
  kernel.CreateThread(server_task, "echo", [&, loop](Env& env) {
    loop->Run<EchoRequest>(env, [&](Env& env, const RpcRequest& rpc, const EchoRequest& req,
                                    const uint8_t*, uint32_t) {
      if (loop_reply) {
        loop->Reply(rpc, &req, rpc.req_len);
      } else {
        (void)env.RpcReply(rpc.token, &req, rpc.req_len);
      }
    });
  });
  std::vector<base::Status> statuses;
  kernel.CreateThread(client_task, "client", [&, send = *send](Env& env) {
    for (uint32_t i = 0; i < 2; ++i) {
      uint32_t req[2] = {kEchoOp, i};
      uint32_t reply[2] = {};
      statuses.push_back(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply), nullptr,
                                     nullptr, nullptr, 0, nullptr, kDeadlineNs));
    }
    loop->Stop();
  });
  EXPECT_EQ(kernel.Run(), 0u);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], fault_case.caller);
  EXPECT_EQ(statuses[1],
            fault_case.keeps_serving ? base::Status::kOk : base::Status::kPortDead);
  EXPECT_EQ(server_task->terminated(), fault_case.mode == fault::FaultMode::kCrashTask);
  EXPECT_EQ(kernel.faults().fires(fault::FaultPoint::kRpcReply), 1u);
  EXPECT_EQ(kernel.CheckInvariants(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryMode, ReplyFaultTest,
    ::testing::Combine(::testing::ValuesIn(kReplyFaultCases), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ReplyFaultCase, bool>>& info) {
      return std::string(fault::FaultModeName(std::get<0>(info.param).mode)) +
             (std::get<1>(info.param) ? "_loop_reply" : "_rpc_reply");
    });

}  // namespace
}  // namespace mk
