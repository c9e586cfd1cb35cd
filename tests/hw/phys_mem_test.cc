#include "src/hw/phys_mem.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

namespace hw {
namespace {

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(PhysMemTest, AllocAndFreeFrames) {
  PhysMem mem(64 * 1024);
  EXPECT_EQ(mem.num_frames(), 16u);
  auto f1 = mem.AllocFrame();
  auto f2 = mem.AllocFrame();
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(*f1, *f2);
  EXPECT_EQ(mem.frames_allocated(), 2u);
  mem.FreeFrame(*f1);
  EXPECT_EQ(mem.frames_allocated(), 1u);
  EXPECT_FALSE(mem.IsAllocated(*f1));
  EXPECT_TRUE(mem.IsAllocated(*f2));
}

TEST(PhysMemTest, ExhaustionReturnsShortage) {
  PhysMem mem(4 * 4096);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(mem.AllocFrame().ok());
  }
  EXPECT_EQ(mem.AllocFrame().status(), base::Status::kResourceShortage);
}

TEST(PhysMemTest, ContiguousAllocationIsContiguous) {
  PhysMem mem(16 * 4096);
  ASSERT_TRUE(mem.AllocFrame().ok());
  auto run = mem.AllocContiguous(4);
  ASSERT_TRUE(run.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(mem.IsAllocated(*run + static_cast<uint64_t>(i) * 4096));
  }
}

TEST(PhysMemTest, ContiguousSkipsFragmentedGaps) {
  PhysMem mem(8 * 4096);
  auto a = mem.AllocFrame();  // frame 0
  auto b = mem.AllocFrame();  // frame 1
  mem.FreeFrame(*a);          // gap of 1 at the front
  auto run = mem.AllocContiguous(3);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(*run, *b);  // could not fit in the single-frame gap
}

TEST(PhysMemTest, ReadWriteRoundTrip) {
  PhysMem mem(64 * 1024);
  const char msg[] = "workplace os";
  mem.Write(0x1234, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  mem.Read(0x1234, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
  mem.WriteU32(0x2000, 0xdeadbeef);
  EXPECT_EQ(mem.ReadU32(0x2000), 0xdeadbeefu);
  mem.Fill(0x2000, 0, 4);
  EXPECT_EQ(mem.ReadU32(0x2000), 0u);
}

// Simulated RAM reads as zero from power-up, but the host backs only the
// pages the simulation writes: zeroing 1 GB up front would take ~262K faults.
TEST(PhysMemTest, HostBacksOnlyWrittenPages) {
  constexpr uint64_t kSize = 1ull << 30;
  const long faults_before = MinorFaults();
  {
    PhysMem mem(kSize);
    EXPECT_EQ(mem.ReadU8(0), 0u);
    EXPECT_EQ(mem.ReadU8(kSize - 1), 0u);
    mem.WriteU8(kSize - 1, 0xa5);
    EXPECT_EQ(mem.ReadU8(kSize - 1), 0xa5u);
  }
  EXPECT_LT(MinorFaults() - faults_before, 1000);
}

TEST(PhysMemTest, OutOfRangeAccessDies) {
  PhysMem mem(4 * 4096);
  uint8_t byte = 0;
  mem.Read(4 * 4096 - 1, &byte, 1);
  EXPECT_DEATH(mem.Read(4 * 4096, &byte, 1), "physical read out of range");
}

}  // namespace
}  // namespace hw
