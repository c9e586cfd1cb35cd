// The two network stack engines (svc/net/stack) whose cost ratio
// bench_fine_objects reports as its net.* keys.
#include <gtest/gtest.h>

#include "src/svc/net/stack.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

class NetTest : public mk::KernelTest {};

TEST_F(NetTest, FineStackCostsMoreThanCoarse) {
  // Identical packet processing through both engines, measured directly (the
  // end-to-end ablation lives in bench_fine_objects, which controls for
  // scheduling noise): the fine-grained one must spend more instructions.
  mk::Task* task = kernel_.CreateTask("stack-bench");
  uint64_t fine_instr = 0;
  uint64_t coarse_instr = 0;
  kernel_.CreateThread(task, "t", [&](mk::Env& env) {
    FineStack fine(kernel_);
    CoarseStack coarse(kernel_);
    Datagram d;
    d.src_addr = 1;
    d.dst_addr = 2;
    d.src_port = 3;
    d.dst_port = 4;
    d.payload.assign(256, 0x55);
    auto measure = [&](StackEngine& engine) -> uint64_t {
      Datagram out;
      for (int i = 0; i < 5; ++i) {  // warm the engine's code paths
        auto frame = engine.Encapsulate(env, d);
        EXPECT_TRUE(engine.Decapsulate(env, frame.data(),
                                       static_cast<uint32_t>(frame.size()), &out));
      }
      const uint64_t i0 = kernel_.Counters().instructions;
      for (int i = 0; i < 50; ++i) {
        auto frame = engine.Encapsulate(env, d);
        EXPECT_TRUE(engine.Decapsulate(env, frame.data(),
                                       static_cast<uint32_t>(frame.size()), &out));
      }
      return kernel_.Counters().instructions - i0;
    };
    fine_instr = measure(fine);
    coarse_instr = measure(coarse);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(fine_instr, coarse_instr + coarse_instr / 4)
      << "fine-grained stack must be measurably slower";
}

}  // namespace
}  // namespace svc
