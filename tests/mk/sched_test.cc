#include <vector>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TEST_F(KernelTest, SingleThreadRunsToCompletion) {
  Task* task = kernel_.CreateTask("t");
  bool ran = false;
  kernel_.CreateThread(task, "worker", [&](Env& env) {
    env.Compute(100);
    ran = true;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(ran);
}

TEST_F(KernelTest, ThreadsInterleaveOnYield) {
  Task* task = kernel_.CreateTask("t");
  std::vector<int> order;
  kernel_.CreateThread(task, "a", [&](Env& env) {
    for (int i = 0; i < 3; ++i) {
      order.push_back(1);
      env.Yield();
    }
  });
  kernel_.CreateThread(task, "b", [&](Env& env) {
    for (int i = 0; i < 3; ++i) {
      order.push_back(2);
      env.Yield();
    }
  });
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST_F(KernelTest, HigherPriorityRunsFirst) {
  Task* task = kernel_.CreateTask("t");
  std::vector<int> order;
  kernel_.CreateThread(
      task, "low", [&](Env&) { order.push_back(0); }, /*priority=*/5);
  kernel_.CreateThread(
      task, "high", [&](Env&) { order.push_back(1); }, /*priority=*/20);
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST_F(KernelTest, SleepAdvancesSimulatedTime) {
  Task* task = kernel_.CreateTask("t");
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  kernel_.CreateThread(task, "sleeper", [&](Env& env) {
    t0 = env.NowNs();
    EXPECT_EQ(env.SleepNs(1'000'000), base::Status::kOk);  // 1 ms
    t1 = env.NowNs();
  });
  kernel_.Run();
  EXPECT_GE(t1 - t0, 1'000'000u);
  EXPECT_LT(t1 - t0, 1'500'000u);  // not wildly more
}

TEST_F(KernelTest, DispatchChargesContextSwitchCosts) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  kernel_.CreateThread(a, "ta", [&](Env& env) {
    for (int i = 0; i < 5; ++i) {
      env.Yield();
    }
  });
  kernel_.CreateThread(b, "tb", [&](Env& env) {
    for (int i = 0; i < 5; ++i) {
      env.Yield();
    }
  });
  kernel_.Run();
  // Two tasks ping-ponging: every dispatch is an address-space switch.
  EXPECT_GE(kernel_.scheduler().context_switches(), 10u);
  EXPECT_GE(kernel_.scheduler().address_space_switches(), 10u);
  EXPECT_GT(machine_.cpu().tlb_stats().flushes, 9u);
}

TEST_F(KernelTest, SameTaskSwitchDoesNotFlushTlb) {
  Task* task = kernel_.CreateTask("t");
  kernel_.CreateThread(task, "a", [&](Env& env) { env.Yield(); });
  kernel_.CreateThread(task, "b", [&](Env& env) { env.Yield(); });
  const uint64_t flushes_before = machine_.cpu().tlb_stats().flushes;
  kernel_.Run();
  // First dispatch activates the task's pmap once; subsequent same-task
  // switches must not flush.
  EXPECT_LE(machine_.cpu().tlb_stats().flushes - flushes_before, 1u);
}

TEST_F(KernelTest, RunReportsBlockedThreads) {
  Task* task = kernel_.CreateTask("t");
  auto port = kernel_.PortAllocate(*task);
  ASSERT_TRUE(port.ok());
  kernel_.CreateThread(task, "stuck", [&](Env& env) {
    MachMessage msg;
    // Nobody ever sends: this thread blocks forever.
    (void)env.kernel().MachMsgReceive(*port, &msg);
  });
  EXPECT_EQ(kernel_.Run(), 1u);
}

TEST_F(KernelTest, DeterministicCycleCounts) {
  auto run_once = [] {
    hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
    Kernel kernel(&machine);
    Task* task = kernel.CreateTask("t");
    kernel.CreateThread(task, "w", [&](Env& env) {
      env.Compute(5000);
      env.SleepNs(100000);
      env.Compute(5000);
    });
    kernel.Run();
    return machine.cpu().cycles();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mk
