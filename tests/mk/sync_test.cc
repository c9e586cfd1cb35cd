#include <vector>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TEST_F(KernelTest, SemaphoreCountingBasics) {
  Task* task = kernel_.CreateTask("t");
  auto sem = kernel_.SemCreate(2);
  ASSERT_TRUE(sem.ok());
  kernel_.CreateThread(task, "w", [&](Env& env) {
    EXPECT_EQ(env.kernel().SemWait(*sem), base::Status::kOk);
    EXPECT_EQ(env.kernel().SemWait(*sem), base::Status::kOk);
    // Third wait would block; use a timeout to prove it.
    EXPECT_EQ(env.kernel().SemWait(*sem, 1'000'000), base::Status::kTimedOut);
    EXPECT_EQ(env.kernel().SemSignal(*sem), base::Status::kOk);
    EXPECT_EQ(env.kernel().SemWait(*sem), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(KernelTest, SemaphoreWakesBlockedWaiterFifo) {
  Task* task = kernel_.CreateTask("t");
  auto sem = kernel_.SemCreate(0);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    kernel_.CreateThread(task, "waiter", [&, i](Env& env) {
      ASSERT_EQ(env.kernel().SemWait(*sem), base::Status::kOk);
      order.push_back(i);
    });
  }
  kernel_.CreateThread(task, "signaller", [&](Env& env) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(env.kernel().SemSignal(*sem), base::Status::kOk);
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(KernelTest, SemaphoreDestroyAbortsWaiters) {
  Task* task = kernel_.CreateTask("t");
  auto sem = kernel_.SemCreate(0);
  base::Status st = base::Status::kOk;
  kernel_.CreateThread(task, "waiter", [&](Env& env) { st = env.kernel().SemWait(*sem); });
  kernel_.CreateThread(task, "destroyer", [&](Env& env) {
    env.Yield();
    ASSERT_EQ(env.kernel().SemDestroy(*sem), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(st, base::Status::kAborted);
}

TEST_F(KernelTest, MemSyncFastPathAvoidsKernel) {
  Task* task = kernel_.CreateTask("t");
  auto addr = kernel_.VmAllocate(*task, hw::kPageSize);
  ASSERT_TRUE(addr.ok());
  kernel_.CreateThread(task, "w", [&](Env& env) {
    uint32_t v = 7;
    ASSERT_EQ(env.CopyOut(*addr, &v, 4), base::Status::kOk);
    // Value differs from expected: returns immediately (user-level fast path).
    const uint64_t c0 = env.kernel().cpu().cycles();
    EXPECT_EQ(env.kernel().MemSyncWait(*addr, /*expected=*/0), base::Status::kOk);
    // A genuinely cheap operation: far less than a kernel trap's fixed cost.
    EXPECT_LT(env.kernel().cpu().cycles() - c0, Costs::kTrapStallCycles);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(KernelTest, MemSyncWaitWakeAcrossAddressSpaces) {
  // Two tasks share a coerced region and rendezvous futex-style on a word in
  // it — the memory synchronizer working across address spaces.
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto addr = kernel_.VmAllocateCoerced(*a, hw::kPageSize);
  ASSERT_TRUE(addr.ok());
  ASSERT_EQ(kernel_.VmMapCoerced(*b, *addr), base::Status::kOk);
  bool woken = false;
  kernel_.CreateThread(a, "waiter", [&](Env& env) {
    uint32_t zero = 0;
    ASSERT_EQ(env.CopyOut(*addr, &zero, 4), base::Status::kOk);
    ASSERT_EQ(env.kernel().MemSyncWait(*addr, 0), base::Status::kOk);
    woken = true;
  });
  kernel_.CreateThread(b, "waker", [&](Env& env) {
    env.Yield();  // let the waiter park
    uint32_t one = 1;
    ASSERT_EQ(env.CopyOut(*addr, &one, 4), base::Status::kOk);
    EXPECT_EQ(env.kernel().MemSyncWake(*addr, 1), 1u);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(woken);
}

TEST_F(KernelTest, MemSyncWaitTimesOut) {
  Task* task = kernel_.CreateTask("t");
  auto addr = kernel_.VmAllocate(*task, hw::kPageSize);
  base::Status st = base::Status::kOk;
  kernel_.CreateThread(task, "w", [&](Env& env) {
    uint32_t zero = 0;
    ASSERT_EQ(env.CopyOut(*addr, &zero, 4), base::Status::kOk);
    st = env.kernel().MemSyncWait(*addr, 0, /*timeout_ns=*/500'000);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(st, base::Status::kTimedOut);
}

TEST_F(KernelTest, SemCreateWithTheHeapFullIsResourceShortage) {
  // A semaphore takes 64 B of a kernel heap that never frees: a full heap
  // answers kResourceShortage and registers no semaphore, and one made
  // before still signals and waits.
  Task* task = kernel_.CreateTask("t");
  kernel_.CreateThread(task, "w", [&](Env& env) {
    auto made = env.kernel().SemCreate(0);
    ASSERT_TRUE(made.ok());
    FillKernelHeap(env.kernel());
    EXPECT_EQ(env.kernel().SemCreate(0).status(), base::Status::kResourceShortage);
    EXPECT_EQ(env.kernel().SemDestroy(*made + 1), base::Status::kNotFound);
    ASSERT_EQ(env.kernel().SemSignal(*made), base::Status::kOk);
    EXPECT_EQ(env.kernel().SemWait(*made), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(KernelTest, KernelInterruptHandlerRuns) {
  Task* task = kernel_.CreateTask("t");
  int fired = 0;
  kernel_.RegisterKernelInterrupt(9, [&] { ++fired; });
  machine_.ScheduleAt(1000, [&] { machine_.pic().Raise(9); });
  kernel_.CreateThread(task, "w", [&](Env& env) { env.SleepNs(1'000'000); });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(kernel_.interrupts_delivered(), 1u);
}

TEST_F(KernelTest, InterruptReflectsToUserLevelPort) {
  // The user-level device driver model: interrupts arrive as messages.
  Task* driver = kernel_.CreateTask("driver");
  auto port = kernel_.PortAllocate(*driver);
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(kernel_.ReflectInterrupt(*driver, 11, *port), base::Status::kOk);
  machine_.ScheduleAt(500, [&] { machine_.pic().Raise(11); });
  uint32_t msg_id = 0;
  kernel_.CreateThread(driver, "isr", [&](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(*port, &msg), base::Status::kOk);
    msg_id = msg.msg_id;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(msg_id, 0x1000u + 11);
}

TEST_F(KernelTest, DroppedInterruptNotificationTakesNoHeap) {
  // Seven interrupts reach a reflected port that nobody receives on, and its
  // queue holds five. A dropped notification takes no kernel heap (each took
  // 64 B, which the heap never returns).
  Task* driver = kernel_.CreateTask("driver");
  auto port = kernel_.PortAllocate(*driver);
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(kernel_.ReflectInterrupt(*driver, 11, *port), base::Status::kOk);
  // Apart in time: the PIC holds one pending raise per line between polls.
  for (uint64_t i = 1; i <= 7; ++i) {
    machine_.ScheduleAt(i * 100'000, [&] { machine_.pic().Raise(11); });
  }
  const uint64_t heap0 = kernel_.heap().bytes_allocated();
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.interrupts_delivered(), 7u);
  EXPECT_EQ((*driver->port_space().LookupReceive(*port))->queue.size(), Port::kDefaultQueueLimit);
  EXPECT_EQ(kernel_.heap().bytes_allocated() - heap0, Port::kDefaultQueueLimit * 64);
}

TEST_F(KernelTest, InterruptWithTheHeapFullIsDropped) {
  // A reflected interrupt's notification takes 64 B of kernel heap. With the
  // heap full it is dropped, as one for a full queue is, instead of
  // aborting the host.
  Task* driver = kernel_.CreateTask("driver");
  auto port = kernel_.PortAllocate(*driver);
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(kernel_.ReflectInterrupt(*driver, 11, *port), base::Status::kOk);
  machine_.ScheduleAt(100'000, [&] { machine_.pic().Raise(11); });
  FillKernelHeap(kernel_);
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.interrupts_delivered(), 1u);
  EXPECT_EQ((*driver->port_space().LookupReceive(*port))->queue.size(), 0u);
}

}  // namespace
}  // namespace mk
