// Shared fixture: one machine + kernel per test. Teardown runs the kernel
// state analyzer: every test ends with a consistent object graph, and any
// thread left in a wait-for cycle fails the test with the rendered cycle.
#ifndef TESTS_MK_KERNEL_TEST_FIXTURE_H_
#define TESTS_MK_KERNEL_TEST_FIXTURE_H_

#include <gtest/gtest.h>

#include <string>

#include "src/hw/machine.h"
#include "src/mk/analysis/wait_for_graph.h"
#include "src/mk/kernel.h"

namespace mk {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : machine_(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024}), kernel_(&machine_) {}

  void TearDown() override {
    EXPECT_EQ(kernel_.CheckInvariants(), 0u)
        << "kernel object graph inconsistent at test end (details logged above)";
    if (check_deadlocks_on_teardown_) {
      analysis::WaitForGraph graph = analysis::WaitForGraph::Build(kernel_);
      for (const std::string& cycle : graph.FindCycleReports()) {
        ADD_FAILURE() << "deadlock cycle left behind: " << cycle;
      }
    }
  }

  hw::Machine machine_;
  Kernel kernel_;
  // Tests that deliberately construct a deadlock opt out of the teardown scan.
  bool check_deadlocks_on_teardown_ = true;
};

// How often the code region `name` ran, from the tracer's flat profile
// (which counts only while tracing is on). A draw loop runs once a line.
inline uint64_t RegionCalls(Kernel& kernel, const std::string& name) {
  for (const trace::Tracer::RegionProfile& region : kernel.tracer().FlatProfile()) {
    if (region.name == name) {
      return region.calls;
    }
  }
  return 0;
}

// Fills the kernel heap, which never frees, down to its last 15 bytes.
inline void FillKernelHeap(Kernel& kernel) {
  for (uint64_t size = KernelConfig().kernel_heap_bytes; size >= 16; size /= 2) {
    while (kernel.heap().TryAllocate(size).ok()) {
    }
  }
}

}  // namespace mk

#endif  // TESTS_MK_KERNEL_TEST_FIXTURE_H_
