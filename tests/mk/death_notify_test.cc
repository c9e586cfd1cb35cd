// Dead-name/port-death notification tests (the Mach notification flavour,
// broadcast to registered watcher ports) plus the TerminateTask teardown
// regressions the restart manager depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TaskDeathNotice TaskNoticeOf(const MachMessage& msg) {
  TaskDeathNotice notice;
  EXPECT_GE(msg.inline_data.size(), sizeof(notice));
  std::memcpy(&notice, msg.inline_data.data(), sizeof(notice));
  return notice;
}

PortDeathNotice PortNoticeOf(const MachMessage& msg) {
  PortDeathNotice notice;
  EXPECT_GE(msg.inline_data.size(), sizeof(notice));
  std::memcpy(&notice, msg.inline_data.data(), sizeof(notice));
  return notice;
}

// A watcher sees a dying task as: one TaskDeathNotice (first, always),
// then one PortDeathNotice per receive port torn down with it.
TEST_F(KernelTest, WatcherReceivesTaskThenPortDeath) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);

  Task* victim = kernel_.CreateTask("victim");
  auto victim_port = kernel_.PortAllocate(*victim);
  ASSERT_TRUE(victim_port.ok());
  const uint64_t victim_port_id = (*kernel_.ResolvePort(*victim, *victim_port))->id();
  const TaskId victim_id = victim->id();

  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.MachMsgReceive(notify, &msg), base::Status::kOk);
    EXPECT_EQ(msg.msg_id, kTaskDeathMsgId);
    EXPECT_EQ(TaskNoticeOf(msg).task, victim_id);
    // The teardown follows with one PortDeathNotice per receive port the
    // victim held — its implicit self port and the explicit one.
    std::vector<uint64_t> dead_ports;
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(env.MachMsgReceive(notify, &msg), base::Status::kOk);
      EXPECT_EQ(msg.msg_id, kPortDeathMsgId);
      dead_ports.push_back(PortNoticeOf(msg).port_id);
    }
    EXPECT_NE(std::find(dead_ports.begin(), dead_ports.end(), victim_port_id),
              dead_ports.end());
  });
  Task* driver = kernel_.CreateTask("driver");
  kernel_.CreateThread(driver, "kill", [&](Env& env) { env.kernel().TerminateTask(victim); });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), 1u);
}

// A death notice takes 64 B of kernel heap. With the heap full the notice is
// dropped, as one for a full watcher queue is, instead of aborting the host,
// and the task still dies.
TEST_F(KernelTest, DeathNoticeWithTheHeapFullIsDropped) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  Task* victim = kernel_.CreateTask("victim");
  Task* driver = kernel_.CreateTask("driver");
  kernel_.CreateThread(driver, "kill", [&](Env& env) {
    FillKernelHeap(env.kernel());
    env.kernel().TerminateTask(victim);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(victim->terminated());
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), 1u);
  EXPECT_EQ((*watcher_task->port_space().LookupReceive(*notify))->queue.size(), 0u);
}

TEST_F(KernelTest, UnregisteredWatcherHearsNothing) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  // Double registration is rejected; unregistering twice is too.
  EXPECT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kAlreadyExists);
  ASSERT_EQ(kernel_.UnregisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  EXPECT_EQ(kernel_.UnregisterDeathWatcher(*watcher_task, *notify), base::Status::kNotFound);

  Task* victim = kernel_.CreateTask("victim");
  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    env.kernel().TerminateTask(victim);
    MachMessage msg;
    EXPECT_EQ(env.MachMsgReceive(notify, &msg, /*timeout_ns=*/1'000'000),
              base::Status::kTimedOut);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// Regression for the scheduler's "waking dead thread" check: killing a
// server task while callers are queued on its port (and one request is in
// flight) must fail every caller with kPortDead and leave a consistent
// object graph — nothing may later try to wake a terminated thread.
TEST_F(KernelTest, TerminateServerWithQueuedAndInFlightCallers) {
  Task* server_task = kernel_.CreateTask("server");
  auto recv = kernel_.PortAllocate(*server_task);
  ASSERT_TRUE(recv.ok());
  kernel_.CreateThread(server_task, "crasher", [&, recv = *recv](Env& env) {
    char buf[64];
    auto req = env.RpcReceive(recv, buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    // Crash with one request in flight and the other callers still queued.
    env.kernel().TerminateTask(&env.task());
  });

  std::vector<base::Status> statuses(3, base::Status::kOk);
  for (int i = 0; i < 3; ++i) {
    Task* client_task = kernel_.CreateTask("client");
    auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
    ASSERT_TRUE(send.ok());
    kernel_.CreateThread(client_task, "caller", [&statuses, i, send = *send](Env& env) {
      uint32_t req = 1;
      uint32_t reply = 0;
      statuses[i] = env.RpcCall(send, &req, sizeof(req), &reply, sizeof(reply));
    });
  }
  EXPECT_EQ(kernel_.Run(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(statuses[i], base::Status::kPortDead) << "caller " << i;
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// TerminateTask is idempotent and safe on a task whose threads already ran
// to completion.
TEST_F(KernelTest, TerminateTaskIsIdempotent) {
  Task* task = kernel_.CreateTask("shortlived");
  kernel_.CreateThread(task, "t", [](Env&) {});
  EXPECT_EQ(kernel_.Run(), 0u);
  kernel_.TerminateTask(task);
  kernel_.TerminateTask(task);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), 1u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// A watcher whose own port dies is pruned instead of wedging later deaths.
TEST_F(KernelTest, DeadWatcherPortIsPruned) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  ASSERT_EQ(kernel_.PortDestroy(*watcher_task, *notify), base::Status::kOk);
  Task* victim = kernel_.CreateTask("victim");
  Task* driver = kernel_.CreateTask("driver");
  kernel_.CreateThread(driver, "kill", [&](Env& env) { env.kernel().TerminateTask(victim); });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace mk
