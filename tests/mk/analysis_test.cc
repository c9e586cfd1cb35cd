// Kernel state analyzer tests: wait-for-graph deadlock detection and the
// object-graph invariant checker (src/mk/analysis/).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mk/analysis/invariants.h"
#include "src/mk/analysis/wait_for_graph.h"
#include "src/mk/kernel.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// The acceptance scenario: two single-threaded servers whose handlers call
// each other. A's server, while serving a client request, calls B; B's
// server, serving that, calls back into A — whose only thread is busy. The
// detector must report the exact thread -> port -> task cycle.
TEST_F(KernelTest, TwoServerRpcCycleIsReportedExactly) {
  check_deadlocks_on_teardown_ = false;  // the deadlock is the point

  Task* task_a = kernel_.CreateTask("A");
  Task* task_b = kernel_.CreateTask("B");
  Task* task_c = kernel_.CreateTask("C");
  auto port_a = kernel_.PortAllocate(*task_a);
  auto port_b = kernel_.PortAllocate(*task_b);
  ASSERT_TRUE(port_a.ok());
  ASSERT_TRUE(port_b.ok());
  auto a_to_b = kernel_.MakeSendRight(*task_b, *port_b, *task_a);
  auto b_to_a = kernel_.MakeSendRight(*task_a, *port_a, *task_b);
  auto c_to_a = kernel_.MakeSendRight(*task_a, *port_a, *task_c);
  const uint64_t port_a_id = (*kernel_.ResolvePort(*task_a, *port_a))->id();
  const uint64_t port_b_id = (*kernel_.ResolvePort(*task_b, *port_b))->id();

  uint32_t buf = 0;
  uint32_t rep = 0;
  Thread* sa = kernel_.CreateThread(task_a, "sa", [&, b = *a_to_b, pa = *port_a](Env& env) {
    auto req = env.RpcReceive(pa, &buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    // Serving A requires calling B — while our only thread is busy here.
    (void)env.RpcCall(b, &buf, sizeof(buf), &rep, sizeof(rep));
  });
  Thread* sb = kernel_.CreateThread(task_b, "sb", [&, a = *b_to_a, pb = *port_b](Env& env) {
    auto req = env.RpcReceive(pb, &buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    // Serving B requires calling back into A: the cycle closes.
    (void)env.RpcCall(a, &buf, sizeof(buf), &rep, sizeof(rep));
  });
  Thread* client = kernel_.CreateThread(task_c, "client", [&, a = *c_to_a](Env& env) {
    uint32_t req = 7;
    (void)env.RpcCall(a, &req, sizeof(req), &rep, sizeof(rep));
  });

  EXPECT_EQ(kernel_.Run(), 3u);  // sa, sb and the client all stuck
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);  // deadlocked but structurally sound

  analysis::WaitForGraph graph = analysis::WaitForGraph::Build(kernel_);
  const analysis::WaitEdge* sa_edge = graph.EdgeFor(sa);
  const analysis::WaitEdge* sb_edge = graph.EdgeFor(sb);
  const analysis::WaitEdge* client_edge = graph.EdgeFor(client);
  ASSERT_NE(sa_edge, nullptr);
  ASSERT_NE(sb_edge, nullptr);
  ASSERT_NE(client_edge, nullptr);
  EXPECT_EQ(sa_edge->kind, analysis::WaitKind::kRpcAwaitingReply);
  EXPECT_EQ(sa_edge->port->id(), port_b_id);
  EXPECT_EQ(sb_edge->kind, analysis::WaitKind::kRpcAwaitingServer);
  EXPECT_EQ(sb_edge->port->id(), port_a_id);
  EXPECT_EQ(client_edge->kind, analysis::WaitKind::kRpcAwaitingReply);

  // All three threads are deadlocked (the client hangs off the cycle)...
  const auto deadlocked = graph.DeadlockedThreads();
  EXPECT_EQ(deadlocked.size(), 3u);

  // ...but exactly one cycle exists: sa <-> sb.
  const auto cycles = graph.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].size(), 2u);
  EXPECT_NE(std::find(cycles[0].begin(), cycles[0].end(), sa), cycles[0].end());
  EXPECT_NE(std::find(cycles[0].begin(), cycles[0].end(), sb), cycles[0].end());

  // The rendered report names both threads, both tasks, and both ports.
  const auto reports = graph.FindCycleReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(Contains(reports[0], "thread 'sa' (task 'A')")) << reports[0];
  EXPECT_TRUE(Contains(reports[0], "thread 'sb' (task 'B')")) << reports[0];
  EXPECT_TRUE(Contains(reports[0], "port " + std::to_string(port_a_id))) << reports[0];
  EXPECT_TRUE(Contains(reports[0], "port " + std::to_string(port_b_id))) << reports[0];
  EXPECT_TRUE(Contains(reports[0], "awaiting RPC reply")) << reports[0];
  EXPECT_TRUE(Contains(reports[0], "waiting for a server")) << reports[0];
}

// Halt() explains WHY a thread is still blocked, not just how many are.
TEST_F(KernelTest, HaltReportsWhyThreadsAreBlocked) {
  Task* task = kernel_.CreateTask("lonely");
  auto port = kernel_.PortAllocate(*task);
  ASSERT_TRUE(port.ok());
  Thread* t = kernel_.CreateThread(task, "receiver", [p = *port](Env& env) {
    MachMessage msg;
    (void)env.kernel().MachMsgReceive(p, &msg);  // nobody will ever send
  });
  EXPECT_EQ(kernel_.Run(), 1u);

  analysis::WaitForGraph graph = analysis::WaitForGraph::Build(kernel_);
  const analysis::WaitEdge* edge = graph.EdgeFor(t);
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->kind, analysis::WaitKind::kIpcReceiveEmpty);
  EXPECT_FALSE(edge->external_wake);
  const std::string why = graph.DescribeBlocked(t);
  EXPECT_TRUE(Contains(why, "thread 'receiver' (task 'lonely')")) << why;
  EXPECT_TRUE(Contains(why, "MachMsgReceive")) << why;
  EXPECT_TRUE(Contains(why, "queue empty")) << why;
  // Stuck forever, but a single node with no self-edge is not a cycle.
  EXPECT_EQ(graph.DeadlockedThreads().size(), 1u);
  EXPECT_TRUE(graph.FindCycles().empty());
}

// A receiver waiting on a port that a device's interrupts are reflected to
// is NOT deadlocked, even before the first interrupt: the device is an
// external wake source. The receiver above, which nothing feeds, is.
TEST_F(KernelTest, InterruptFedReceiverIsNotDeadlocked) {
  constexpr uint32_t kLine = 9;
  Task* task = kernel_.CreateTask("driver");
  auto port = kernel_.PortAllocate(*task);
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(kernel_.ReflectInterrupt(*task, kLine, *port), base::Status::kOk);
  machine_.ScheduleAt(1'000'000, [&] { machine_.pic().Raise(kLine); });
  uint32_t msg_id = 0;
  Thread* receiver = kernel_.CreateThread(task, "isr", [&, p = *port](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(p, &msg), base::Status::kOk);
    msg_id = msg.msg_id;
  });
  bool probed = false;
  kernel_.CreateThread(task, "probe", [&](Env& env) {
    env.SleepNs(100'000);  // the receiver parks; the interrupt is still ahead
    analysis::WaitForGraph graph = analysis::WaitForGraph::Build(kernel_);
    const analysis::WaitEdge* edge = graph.EdgeFor(receiver);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->kind, analysis::WaitKind::kIpcReceiveEmpty);
    EXPECT_TRUE(edge->external_wake);
    EXPECT_TRUE(graph.DeadlockedThreads().empty());
    probed = true;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(probed);
  EXPECT_EQ(msg_id, 0x1000u + kLine);
}

// Teardown invariant: a task killed while its port still holds queued
// messages leaves a consistent graph. Task death destroys its receive
// ports (so senders observe kPortDead instead of queueing into a void),
// which drops the queued messages with them.
TEST_F(KernelTest, KillTaskWithQueuedMessagesStaysConsistent) {
  Task* victim = kernel_.CreateTask("victim");
  Task* sender = kernel_.CreateTask("sender");
  auto recv = kernel_.PortAllocate(*victim);
  ASSERT_TRUE(recv.ok());
  auto send = kernel_.MakeSendRight(*victim, *recv, *sender);
  ASSERT_TRUE(send.ok());
  kernel_.CreateThread(sender, "s", [&, dst = *send](Env& env) {
    for (int i = 0; i < 3; ++i) {
      MachMessage msg;
      msg.dest = dst;
      msg.msg_id = 100 + i;
      ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
    }
    env.kernel().TerminateTask(env.kernel().tasks()[0].get());
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  Port* port = *kernel_.ResolvePort(*victim, *recv);
  EXPECT_TRUE(port->dead());         // task death takes its ports with it
  EXPECT_TRUE(port->queue.empty());  // a dead port keeps nothing
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  EXPECT_EQ(kernel_.PortDestroy(*victim, *recv), base::Status::kOk);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The checker actually detects corruption (and says what broke).
TEST_F(KernelTest, InvariantCheckerFlagsCorruption) {
  Task* task = kernel_.CreateTask("t");
  auto name = kernel_.PortAllocate(*task);
  ASSERT_TRUE(name.ok());
  Port* port = *kernel_.ResolvePort(*task, *name);

  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  while (port->queue.size() <= port->queue_limit) {  // one past the limit: corrupt
    port->queue.push_back(std::make_unique<QueuedMessage>());
  }
  const std::vector<std::string> violations = analysis::CollectViolations(kernel_);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(Contains(violations[0], "exceeds limit")) << violations[0];
  port->queue.clear();  // restore for teardown
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The every-N-kernel-entries cadence (KernelConfig::invariant_check_interval)
// holds across a live RPC workload.
TEST(KernelAnalysisCadenceTest, InvariantsHoldOnEveryKernelEntry) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  KernelConfig config;
  config.invariant_check_interval = 1;  // check at every kernel entry
  Kernel kernel(&machine, config);

  Task* server = kernel.CreateTask("server");
  Task* client = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server);
  auto send = kernel.MakeSendRight(*server, *recv, *client);
  kernel.CreateThread(server, "s", [&, p = *recv](Env& env) {
    for (int i = 0; i < 4; ++i) {
      uint32_t buf = 0;
      auto req = env.RpcReceive(p, &buf, sizeof(buf));
      ASSERT_TRUE(req.ok());
      uint32_t rep = buf + 1;
      ASSERT_EQ(env.RpcReply(req->token, &rep, sizeof(rep)), base::Status::kOk);
    }
  });
  kernel.CreateThread(client, "c", [&, p = *send](Env& env) {
    for (uint32_t i = 0; i < 4; ++i) {
      uint32_t rep = 0;
      ASSERT_EQ(env.RpcCall(p, &i, sizeof(i), &rep, sizeof(rep)), base::Status::kOk);
      ASSERT_EQ(rep, i + 1);
    }
  });
  EXPECT_EQ(kernel.Run(), 0u);
  EXPECT_EQ(kernel.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace mk
