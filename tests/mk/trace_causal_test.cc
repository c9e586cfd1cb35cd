// Causal request-tracing contract tests: the kernel carries a TraceContext
// across every RPC rendezvous, so spans opened in a server handler chain
// onto the caller's trace; port queue wait is attributed per hop; the
// request-tree report is deterministic; and — as for the rest of the
// tracer — the whole machinery charges zero simulated cycles.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/drv/disk_driver.h"
#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"
#include "src/mk/trace/exporters.h"
#include "src/pers/unixp/unix.h"
#include "src/svc/fs/file_server.h"

namespace mk {
namespace {

constexpr uint32_t kEchoOp = 1;

struct EchoRequest {
  uint32_t op = kEchoOp;
  uint32_t value = 0;
};

// First span of `kind` (lowest id), or nullptr.
const trace::Tracer::SpanMeta* FindSpan(Kernel& kernel, trace::SpanKind kind) {
  for (const auto& [id, meta] : kernel.tracer().spans()) {
    if (meta.kind == kind) {
      return &meta;
    }
  }
  return nullptr;
}

std::vector<const trace::Tracer::SpanMeta*> ChildrenOf(Kernel& kernel, uint64_t parent) {
  std::vector<const trace::Tracer::SpanMeta*> out;
  for (const auto& [id, meta] : kernel.tracer().spans()) {
    if (meta.parent == parent) {
      out.push_back(&meta);
    }
  }
  return out;
}

uint64_t SpanIdOf(Kernel& kernel, const trace::Tracer::SpanMeta* meta) {
  for (const auto& [id, m] : kernel.tracer().spans()) {
    if (&m == meta) {
      return id;
    }
  }
  return 0;
}

// Echo servers on their own tasks; a server built over another server's
// index RPCs into it from inside the handler before replying (multi-hop).
struct EchoSystem {
  explicit EchoSystem(Kernel& kernel) : kernel_(kernel) {}

  // `yield_before_reply` makes the handler give up the CPU before it answers,
  // so another client's call can queue on the port meanwhile.
  size_t AddServer(const std::string& name, int nested_over = -1,
                   bool yield_before_reply = false) {
    Task* task = kernel_.CreateTask(name);
    auto recv = kernel_.PortAllocate(*task);
    WPOS_CHECK(recv.ok());
    PortName nested_send = kNullPort;
    if (nested_over >= 0) {
      nested_send = GrantTo(static_cast<size_t>(nested_over), *task);
    }
    // The server's own loop and stub images, charged as every server does.
    const hw::CodeRegion stub = hw::DefineKernelCode("stub." + name, Costs::kRpcServerStub);
    const hw::CodeRegion loop_code = hw::DefineKernelCode("loop." + name, Costs::kRpcServerLoop);
    auto loop = std::make_shared<ServerLoop>(*recv, name);
    kernel_.CreateThread(task, "loop", [loop, nested_send, stub, loop_code,
                                        yield_before_reply](Env& env) {
      loop->Run<EchoRequest>(env, [l = loop.get(), nested_send, stub, loop_code,
                                   yield_before_reply](Env& env, const RpcRequest& rpc,
                                                       const EchoRequest& req, const uint8_t*,
                                                       uint32_t) {
        env.kernel().cpu().Execute(loop_code);
        env.kernel().cpu().Execute(stub);
        if (!l->EnterHandler(env, rpc)) {
          return;
        }
        if (nested_send != kNullPort) {
          uint32_t inner[2] = {kEchoOp, 7};
          uint32_t inner_reply[2] = {};
          (void)env.RpcCall(nested_send, inner, sizeof(inner), inner_reply, sizeof(inner_reply));
        }
        if (yield_before_reply) {
          env.Yield();
        }
        l->Reply(rpc, &req, rpc.req_len);
      });
    });
    tasks_.push_back(task);
    loops_.push_back(loop);
    ports_.push_back(*recv);
    return tasks_.size() - 1;
  }

  PortName GrantTo(size_t server, Task& client) {
    auto send = kernel_.MakeSendRight(*tasks_[server], ports_[server], client);
    WPOS_CHECK(send.ok());
    return *send;
  }

  void StopAll() {
    for (auto& loop : loops_) {
      loop->Stop();
    }
  }

  Kernel& kernel_;
  std::vector<Task*> tasks_;
  std::vector<std::shared_ptr<ServerLoop>> loops_;
  std::vector<PortName> ports_;
};

TEST(CausalTrace, ServerHandlerJoinsCallersTrace) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  EchoSystem sys(kernel);
  sys.AddServer("echo");
  Task* client_task = kernel.CreateTask("client");
  const PortName send = sys.GrantTo(0, *client_task);
  kernel.CreateThread(client_task, "client", [&](Env& env) {
    uint32_t req[2] = {kEchoOp, 42};
    uint32_t reply[2] = {};
    EXPECT_EQ(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply)), base::Status::kOk);
    sys.StopAll();
  });
  EXPECT_EQ(kernel.Run(), 0u);

  const trace::Tracer::SpanMeta* rpc = FindSpan(kernel, trace::SpanKind::kRpc);
  ASSERT_NE(rpc, nullptr);
  EXPECT_EQ(rpc->parent, 0u);            // the client call roots the trace
  EXPECT_NE(rpc->trace_id, 0u);
  EXPECT_EQ(rpc->label, "echo");         // labeled with the server task name
  const trace::Tracer::SpanMeta* op = FindSpan(kernel, trace::SpanKind::kServerOp);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->parent, SpanIdOf(kernel, rpc));
  EXPECT_EQ(op->trace_id, rpc->trace_id);
  // Hop boundaries bracket the latency buckets in order.
  EXPECT_GT(rpc->dispatch_cycle, rpc->begin_cycle);
  EXPECT_GT(rpc->reply_cycle, rpc->dispatch_cycle);
  EXPECT_GE(rpc->end_cycle, rpc->reply_cycle);
}

TEST(CausalTrace, NestedRpcBuildsOneTreeAcrossThreeTasks) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  EchoSystem sys(kernel);
  const size_t backend = sys.AddServer("backend");
  const size_t frontend = sys.AddServer("frontend", static_cast<int>(backend));
  Task* client_task = kernel.CreateTask("client");
  const PortName send = sys.GrantTo(frontend, *client_task);
  kernel.CreateThread(client_task, "client", [&](Env& env) {
    uint32_t req[2] = {kEchoOp, 1};
    uint32_t reply[2] = {};
    EXPECT_EQ(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply)), base::Status::kOk);
    sys.StopAll();
  });
  EXPECT_EQ(kernel.Run(), 0u);

  // One trace: client rpc -> frontend server_op -> nested rpc -> backend
  // server_op, spanning three tasks.
  const trace::Tracer::SpanMeta* root = nullptr;
  uint64_t root_id = 0;
  for (const auto& [id, meta] : kernel.tracer().spans()) {
    if (meta.kind == trace::SpanKind::kRpc && meta.parent == 0) {
      root = &meta;
      root_id = id;
      break;
    }
  }
  ASSERT_NE(root, nullptr);
  auto ops = ChildrenOf(kernel, root_id);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->kind, trace::SpanKind::kServerOp);
  auto nested = ChildrenOf(kernel, SpanIdOf(kernel, ops[0]));
  ASSERT_GE(nested.size(), 1u);
  EXPECT_EQ(nested[0]->kind, trace::SpanKind::kRpc);
  auto backend_ops = ChildrenOf(kernel, SpanIdOf(kernel, nested[0]));
  ASSERT_GE(backend_ops.size(), 1u);
  EXPECT_EQ(backend_ops[0]->trace_id, root->trace_id);
  // Three distinct tasks appear on the one trace.
  EXPECT_NE(ops[0]->task, root->task);
  EXPECT_NE(backend_ops[0]->task, ops[0]->task);
}

TEST(CausalTrace, ContendedPortRecordsQueueWait) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  EchoSystem sys(kernel);
  // Reply-and-receive parks the server again before a replied client runs,
  // so two clients alone never queue; a handler that yields lets the other
  // client's call arrive while it is busy.
  sys.AddServer("hot", /*nested_over=*/-1, /*yield_before_reply=*/true);
  Task* a_task = kernel.CreateTask("client-a");
  Task* b_task = kernel.CreateTask("client-b");
  const PortName send_a = sys.GrantTo(0, *a_task);
  const PortName send_b = sys.GrantTo(0, *b_task);
  int done = 0;
  auto client = [&](PortName send) {
    return [&, send](Env& env) {
      uint32_t req[2] = {kEchoOp, 9};
      uint32_t reply[2] = {};
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(env.RpcCall(send, req, sizeof(req), reply, sizeof(reply)), base::Status::kOk);
      }
      if (++done == 2) {
        sys.StopAll();
      }
    };
  };
  kernel.CreateThread(a_task, "a", client(send_a));
  kernel.CreateThread(b_task, "b", client(send_b));
  EXPECT_EQ(kernel.Run(), 0u);

  // Every dispatched RPC records a queue-wait sample (0 for a direct
  // rendezvous), and with two clients hammering one single-threaded server
  // some calls really queued: a non-zero maximum, visible in both the
  // global histogram and the per-server labeled one.
  const trace::Histogram& wait = kernel.tracer().metrics().Hist("mk.rpc.queue_wait_cycles");
  EXPECT_EQ(wait.count(), 20u);
  EXPECT_GT(wait.max(), 0u);
  const trace::Histogram& labeled =
      kernel.tracer().metrics().Hist("mk.rpc.queue_wait_cycles.hot");
  EXPECT_EQ(labeled.count(), 20u);
  EXPECT_GT(labeled.max(), 0u);
  bool saw_queued = false;
  for (const auto& [id, meta] : kernel.tracer().spans()) {
    if (meta.kind == trace::SpanKind::kRpc && meta.queued_cycle != 0) {
      saw_queued = true;
      EXPECT_GE(meta.dispatch_cycle, meta.queued_cycle);
    }
  }
  EXPECT_TRUE(saw_queued);
}

// A robust echo call with a seeded first-attempt copy fault; the retry
// succeeds. Used for the one-trace-per-request property, the zero-cost
// comparison and the deterministic-report comparison.
struct RobustRun {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<EchoSystem> sys;
  hw::CpuCounters counters;
};

RobustRun RunRobustRetryWorkload(bool traced) {
  RobustRun run;
  run.machine =
      std::make_unique<hw::Machine>(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  run.kernel = std::make_unique<Kernel>(run.machine.get());
  Kernel& kernel = *run.kernel;
  if (traced) {
    kernel.tracer().Enable();
  }
  kernel.faults().Enable(3);
  kernel.faults().Arm(fault::FaultPoint::kMessageCopy, fault::FaultMode::kTransientError, 100,
                      /*max_fires=*/1);
  run.sys = std::make_unique<EchoSystem>(kernel);
  EchoSystem& sys = *run.sys;
  sys.AddServer("flaky");
  Task* client_task = kernel.CreateTask("client");
  const PortName send = sys.GrantTo(0, *client_task);
  kernel.CreateThread(client_task, "client", [&kernel, &sys, send](Env& env) {
    PortName cached = send;
    const PortResolver resolver = [send](Env&) -> base::Result<PortName> { return send; };
    RobustCallOptions opts;
    opts.attempt_timeout_ns = 5'000'000;
    uint32_t req[2] = {kEchoOp, 123};
    uint32_t reply[2] = {};
    EXPECT_EQ(RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply), opts),
              base::Status::kOk);
    EXPECT_EQ(reply[1], 123u);
    sys.StopAll();
  });
  EXPECT_EQ(kernel.Run(), 0u);
  run.counters = kernel.Counters();
  return run;
}

TEST(CausalTrace, RobustRetryKeepsOneTraceId) {
  const RobustRun run = RunRobustRetryWorkload(/*traced=*/true);
  Kernel& kernel = *run.kernel;

  // One umbrella robust span; both attempts are child rpc spans of it and
  // share its trace id — the retry did not start a fresh trace.
  const trace::Tracer::SpanMeta* robust = FindSpan(kernel, trace::SpanKind::kRpcRobust);
  ASSERT_NE(robust, nullptr);
  EXPECT_EQ(robust->parent, 0u);
  EXPECT_EQ(robust->end_arg, static_cast<uint64_t>(base::Status::kOk));
  std::vector<const trace::Tracer::SpanMeta*> attempts;
  for (const auto* child : ChildrenOf(kernel, SpanIdOf(kernel, robust))) {
    if (child->kind == trace::SpanKind::kRpc) {
      attempts.push_back(child);
    }
  }
  ASSERT_EQ(attempts.size(), 2u);  // the faulted attempt and the retry
  for (const auto* attempt : attempts) {
    EXPECT_EQ(attempt->trace_id, robust->trace_id);
  }
}

TEST(CausalTrace, TracedRunCountersMatchUntracedExactly) {
  const RobustRun untraced = RunRobustRetryWorkload(false);
  const RobustRun traced = RunRobustRetryWorkload(true);
  EXPECT_EQ(traced.counters.instructions, untraced.counters.instructions);
  EXPECT_EQ(traced.counters.cycles, untraced.counters.cycles);
  EXPECT_EQ(traced.counters.bus_cycles, untraced.counters.bus_cycles);
  EXPECT_EQ(traced.counters.icache_misses, untraced.counters.icache_misses);
  EXPECT_EQ(traced.counters.dcache_misses, untraced.counters.dcache_misses);
  EXPECT_EQ(traced.counters.tlb_misses, untraced.counters.tlb_misses);
}

TEST(CausalTrace, RequestTreeReportIsByteIdenticalAcrossRuns) {
  std::string reports[2];
  for (std::string& report : reports) {
    const RobustRun run = RunRobustRetryWorkload(/*traced=*/true);
    std::ostringstream os;
    trace::WriteRequestTrees(os, *run.kernel);
    report = os.str();
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_NE(reports[0].find("causal request trees"), std::string::npos);
  EXPECT_NE(reports[0].find("queue_wait="), std::string::npos);
  EXPECT_NE(reports[0].find("rpc_robust"), std::string::npos);
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(CausalTrace, LogLinesCarryTheActiveTraceId) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  Task* task = kernel.CreateTask("app");
  kernel.CreateThread(task, "main", [&](Env& env) {
    {
      base::ScopedLogCapture capture;
      WPOS_LOG(kWarn) << "outside any span";
      EXPECT_FALSE(capture.Contains("trace="));
    }
    trace::ScopedSpan span(kernel.tracer(), trace::SpanKind::kApi, trace::EventType::kApiCall,
                           trace::EventType::kApiReturn);
    base::ScopedLogCapture capture;
    WPOS_LOG(kWarn) << "inside the request";
    EXPECT_TRUE(capture.Contains(" trace=" +
                                 std::to_string(kernel.tracer().SpanTraceId(span.id()))));
  });
  EXPECT_EQ(kernel.Run(), 0u);
}

// The acceptance scenario: a UNIX read() through the personality, the file
// server and the user-level disk driver renders as ONE causal tree spanning
// all three server tasks.
TEST(CausalTrace, UnixReadSpansPersonalityFsAndDriver) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  Kernel kernel(&machine);
  kernel.tracer().Enable();
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(
      std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 64 * 1024})));
  Task* driver_task = kernel.CreateTask("disk-driver");
  drv::DiskDriver driver(kernel, driver_task, disk, nullptr);
  Task* fs_task = kernel.CreateTask("file-server");
  drv::RpcBlockStore store(driver.GrantTo(*fs_task), disk->num_sectors());
  svc::FileServer fs(kernel, fs_task);
  // Tiny cache: the traced read() must miss and take the third hop.
  ASSERT_EQ(fs.AddVolume("/", &store, svc::PfsKind::kHpfs, 65536, 16), base::Status::kOk);
  fs.StartMkfs();
  pers::UnixPersonality unix_pers(kernel, fs);
  pers::UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("reader", [&](Env& env) {
    fs.AwaitMkfs(env);
    char block[1024];
    std::memset(block, 'x', sizeof(block));
    auto fd = proc->Open(env, "/data.bin", pers::kOCreat | pers::kORdWr);
    ASSERT_TRUE(fd.ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(proc->Write(env, *fd, block, sizeof(block)).ok());
    }
    ASSERT_TRUE(proc->Lseek(env, *fd, 0, 0).ok());
    ASSERT_TRUE(proc->Read(env, *fd, block, sizeof(block)).ok());
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs.Stop();
    driver.Stop();
    kernel.TerminateTask(driver_task);
  });
  kernel.Run();

  // Find the read() API span and collect the tasks on its subtree.
  const trace::Tracer::SpanMeta* read_span = nullptr;
  uint64_t read_id = 0;
  for (const auto& [id, meta] : kernel.tracer().spans()) {
    if (meta.kind == trace::SpanKind::kApi && meta.label == "unix.read") {
      read_span = &meta;
      read_id = id;
    }
  }
  ASSERT_NE(read_span, nullptr);
  std::vector<uint64_t> frontier = {read_id};
  std::set<TaskId> tasks_on_tree = {read_span->task};
  size_t tree_size = 1;
  while (!frontier.empty()) {
    const uint64_t node = frontier.back();
    frontier.pop_back();
    for (const auto* child : ChildrenOf(kernel, node)) {
      EXPECT_EQ(child->trace_id, read_span->trace_id);
      tasks_on_tree.insert(child->task);
      frontier.push_back(SpanIdOf(kernel, child));
      ++tree_size;
    }
  }
  EXPECT_GE(tree_size, 5u);  // api + rpc + fs op + nested rpc + driver op
  EXPECT_NE(tasks_on_tree.count(fs_task->id()), 0u);
  EXPECT_NE(tasks_on_tree.count(driver_task->id()), 0u);
  EXPECT_GE(tasks_on_tree.size(), 3u);  // personality + fs + driver
}

}  // namespace
}  // namespace mk
