#include <gtest/gtest.h>
#include <sys/resource.h>

#include "src/hw/disk.h"
#include "src/hw/framebuffer.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace hw {
namespace {

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

class DevicesTest : public ::testing::Test {
 protected:
  Machine machine_{MachineConfig{.ram_bytes = 4 * 1024 * 1024}};
};

TEST_F(DevicesTest, EventQueueOrdersByTimeThenSequence) {
  std::vector<int> order;
  machine_.ScheduleAt(100, [&] { order.push_back(1); });
  machine_.ScheduleAt(50, [&] { order.push_back(0); });
  machine_.ScheduleAt(100, [&] { order.push_back(2); });
  machine_.cpu().AdvanceCycles(100);
  machine_.PollEvents();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(DevicesTest, IdleAdvanceSkipsToNextEvent) {
  bool fired = false;
  machine_.ScheduleAt(5000, [&] { fired = true; });
  EXPECT_TRUE(machine_.IdleAdvance());
  EXPECT_TRUE(fired);
  EXPECT_GE(machine_.cpu().cycles(), 5000u);
  EXPECT_FALSE(machine_.IdleAdvance());
}

TEST_F(DevicesTest, DiskDmaReadWriteWithInterrupt) {
  auto* disk = static_cast<Disk*>(machine_.AddDevice(std::make_unique<Disk>("disk0", 3)));
  // Prepare platter content via the backdoor.
  std::vector<uint8_t> sector(Disk::kSectorSize, 0xab);
  disk->WriteSectors(7, 1, sector.data());

  // Program a DMA read of sector 7 into physical 0x10000.
  disk->WriteReg(Disk::kRegLba, 7);
  disk->WriteReg(Disk::kRegCount, 1);
  disk->WriteReg(Disk::kRegDmaLo, 0x10000);
  disk->WriteReg(Disk::kRegCommand, Disk::kCmdRead);
  EXPECT_TRUE(disk->ReadReg(Disk::kRegStatus) & Disk::kStatusBusy);
  while (machine_.IdleAdvance()) {
  }
  EXPECT_TRUE(disk->ReadReg(Disk::kRegStatus) & Disk::kStatusDone);
  EXPECT_TRUE(machine_.pic().IsPending(3));
  EXPECT_EQ(machine_.mem().ReadU8(0x10000), 0xab);

  machine_.pic().Ack(3);
  disk->WriteReg(Disk::kRegStatus, 0);  // ack at device

  // Write path: memory -> platter.
  machine_.mem().Fill(0x20000, 0x5c, Disk::kSectorSize);
  disk->WriteReg(Disk::kRegLba, 9);
  disk->WriteReg(Disk::kRegCount, 1);
  disk->WriteReg(Disk::kRegDmaLo, 0x20000);
  disk->WriteReg(Disk::kRegCommand, Disk::kCmdWrite);
  while (machine_.IdleAdvance()) {
  }
  uint8_t out[Disk::kSectorSize];
  disk->ReadSectors(9, 1, out);
  EXPECT_EQ(out[0], 0x5c);
  EXPECT_EQ(out[Disk::kSectorSize - 1], 0x5c);
}

TEST_F(DevicesTest, DiskOutOfRangeSetsError) {
  auto* disk = static_cast<Disk*>(machine_.AddDevice(std::make_unique<Disk>("disk0", 3)));
  disk->WriteReg(Disk::kRegLba, 0xffffffff);
  disk->WriteReg(Disk::kRegCount, 1);
  disk->WriteReg(Disk::kRegCommand, Disk::kCmdRead);
  EXPECT_TRUE(disk->ReadReg(Disk::kRegStatus) & Disk::kStatusError);
}

// The platter reads as zero until written, and the host backs only the
// sectors written: zeroing a 1 GB image up front would take ~262K faults.
TEST_F(DevicesTest, DiskHostBacksOnlyWrittenSectors) {
  constexpr uint64_t kSectors = (1ull << 30) / Disk::kSectorSize;
  const long faults_before = MinorFaults();
  {
    Disk disk("big", 3, Disk::Geometry{.sectors = kSectors});
    std::vector<uint8_t> sector(Disk::kSectorSize, 0xff);
    disk.ReadSectors(0, 1, sector.data());
    EXPECT_EQ(sector, std::vector<uint8_t>(Disk::kSectorSize, 0));
    sector.assign(Disk::kSectorSize, 0xff);
    disk.ReadSectors(kSectors - 1, 1, sector.data());
    EXPECT_EQ(sector, std::vector<uint8_t>(Disk::kSectorSize, 0));
    std::vector<uint8_t> written(Disk::kSectorSize, 0x3c);
    disk.WriteSectors(kSectors - 1, 1, written.data());
    disk.ReadSectors(kSectors - 1, 1, sector.data());
    EXPECT_EQ(sector, written);
  }
  EXPECT_LT(MinorFaults() - faults_before, 1000);
}

TEST_F(DevicesTest, DiskBackdoorOutOfRangeDies) {
  Disk disk("small", 3, Disk::Geometry{.sectors = 8});
  std::vector<uint8_t> sector(Disk::kSectorSize);
  disk.ReadSectors(7, 1, sector.data());
  EXPECT_DEATH(disk.ReadSectors(8, 1, sector.data()), "Check failed");
}

TEST_F(DevicesTest, NicLoopsBackFrames) {
  auto* nic = static_cast<Nic*>(machine_.AddDevice(std::make_unique<Nic>("nic0", 5)));
  machine_.mem().Fill(0x30000, 0x11, 64);
  nic->WriteReg(Nic::kRegRxAddr, 0x40000);
  nic->WriteReg(Nic::kRegRxCap, 2048);
  nic->WriteReg(Nic::kRegTxAddr, 0x30000);
  nic->WriteReg(Nic::kRegTxLen, 64);
  nic->WriteReg(Nic::kRegCommand, Nic::kCmdSend);
  while (machine_.IdleAdvance()) {
  }
  EXPECT_TRUE(nic->ReadReg(Nic::kRegStatus) & Nic::kStatusRxReady);
  EXPECT_EQ(nic->ReadReg(Nic::kRegRxLen), 64u);
  EXPECT_EQ(machine_.mem().ReadU8(0x40000), 0x11);
  EXPECT_TRUE(machine_.pic().IsPending(5));
  EXPECT_EQ(nic->frames_delivered(), 1u);
}

TEST_F(DevicesTest, NicQueuesWhenRxBusy) {
  auto* nic = static_cast<Nic*>(machine_.AddDevice(std::make_unique<Nic>("nic0", 5)));
  nic->WriteReg(Nic::kRegRxAddr, 0x40000);
  nic->WriteReg(Nic::kRegRxCap, 2048);
  machine_.mem().WriteU8(0x30000, 1);
  machine_.mem().WriteU8(0x31000, 2);
  nic->WriteReg(Nic::kRegTxAddr, 0x30000);
  nic->WriteReg(Nic::kRegTxLen, 32);
  nic->WriteReg(Nic::kRegCommand, Nic::kCmdSend);
  nic->WriteReg(Nic::kRegTxAddr, 0x31000);
  nic->WriteReg(Nic::kRegTxLen, 32);
  nic->WriteReg(Nic::kRegCommand, Nic::kCmdSend);
  while (machine_.IdleAdvance()) {
  }
  // Only the first frame delivered; second waits for the ack.
  EXPECT_EQ(machine_.mem().ReadU8(0x40000), 1);
  nic->WriteReg(Nic::kRegCommand, Nic::kCmdRxAck);
  EXPECT_EQ(machine_.mem().ReadU8(0x40000), 2);
  EXPECT_EQ(nic->frames_delivered(), 2u);
}

TEST_F(DevicesTest, FramebufferAllocatesVramAperture) {
  Framebuffer* fb = nullptr;
  {
    auto dev = std::make_unique<Framebuffer>("fb0", &machine_, 640, 480);
    fb = dev.get();
    machine_.AddDevice(std::move(dev));
  }
  EXPECT_EQ(fb->vram_size(), 640u * 480u);
  EXPECT_TRUE(machine_.mem().IsAllocated(fb->vram_base()));
  EXPECT_EQ(fb->ReadReg(Framebuffer::kRegWidth), 640u);
  EXPECT_EQ(fb->ReadReg(Framebuffer::kRegVramLo), static_cast<uint32_t>(fb->vram_base()));
}

TEST_F(DevicesTest, DeviceRegisterRouting) {
  auto* disk = machine_.AddDevice(std::make_unique<Disk>("disk0", 3));
  auto* nic = machine_.AddDevice(std::make_unique<Nic>("nic0", 5));
  EXPECT_NE(disk->reg_base(), nic->reg_base());
  machine_.DeviceWrite(disk->reg_base() + Disk::kRegLba, 42);
  EXPECT_EQ(machine_.DeviceRead(disk->reg_base() + Disk::kRegLba), 42u);
  EXPECT_EQ(machine_.FindDevice("nic0"), nic);
  EXPECT_EQ(machine_.FindDevice("none"), nullptr);
}

TEST_F(DevicesTest, InterruptControllerEnableMasking) {
  InterruptController pic;
  pic.Raise(4);
  EXPECT_TRUE(pic.IsPending(4));
  pic.Enable(4, false);
  EXPECT_FALSE(pic.IsPending(4));
  EXPECT_EQ(pic.NextPending(), -1);
  pic.Enable(4, true);
  EXPECT_EQ(pic.NextPending(), 4);
  pic.Ack(4);
  EXPECT_FALSE(pic.AnyPending());
  EXPECT_EQ(pic.raise_count(4), 1u);
}

}  // namespace
}  // namespace hw
