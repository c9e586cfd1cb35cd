#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/baseline/monolithic.h"
#include "src/drv/disk_driver.h"
#include "src/drv/fb_driver.h"
#include "src/drv/nic_driver.h"
#include "src/drv/oo/ooddm.h"
#include "src/drv/resource_manager.h"
#include "src/svc/fs/block_cache.h"
#include "tests/mk/kernel_test_fixture.h"

namespace drv {
namespace {

class ResourceManagerTest : public mk::KernelTest {
 protected:
  ResourceManager rm_{kernel_};
};

TEST_F(ResourceManagerTest, GrantAndOwnership) {
  const DriverId a = rm_.RegisterDriver("a");
  const ResourceId irq5{ResourceKind::kIrqLine, 5};
  ASSERT_EQ(rm_.DeclareResource(irq5, "irq 5"), base::Status::kOk);
  EXPECT_EQ(rm_.Request(a, irq5), base::Status::kOk);
  EXPECT_TRUE(rm_.Owns(a, irq5));
  EXPECT_EQ(*rm_.OwnerOf(irq5), a);
  // Idempotent re-request.
  EXPECT_EQ(rm_.Request(a, irq5), base::Status::kOk);
  EXPECT_EQ(rm_.grants(), 1u);
}

TEST_F(ResourceManagerTest, RequestUndeclaredFails) {
  const DriverId a = rm_.RegisterDriver("a");
  EXPECT_EQ(rm_.Request(a, {ResourceKind::kDmaChannel, 1}), base::Status::kNotFound);
}

TEST_F(ResourceManagerTest, OwnerDecliningKeepsRequesterPending) {
  const DriverId a = rm_.RegisterDriver("a");  // no yield handler: declines
  const DriverId b = rm_.RegisterDriver("b");
  const ResourceId io{ResourceKind::kIoWindow, 0x1000};
  ASSERT_EQ(rm_.DeclareResource(io, "regs"), base::Status::kOk);
  ASSERT_EQ(rm_.Request(a, io), base::Status::kOk);
  EXPECT_EQ(rm_.Request(b, io), base::Status::kBusy);
  EXPECT_TRUE(rm_.Owns(a, io));
  // When the owner yields, the pending request is granted.
  ASSERT_EQ(rm_.Yield(a, io), base::Status::kOk);
  EXPECT_TRUE(rm_.Owns(b, io));
}

TEST_F(ResourceManagerTest, CooperativeOwnerYieldsOnRequest) {
  int asked = 0;
  const DriverId a = rm_.RegisterDriver("a", [&](const ResourceId&) {
    ++asked;
    return true;  // polite driver: yields immediately
  });
  const DriverId b = rm_.RegisterDriver("b");
  const ResourceId dma{ResourceKind::kDmaChannel, 3};
  ASSERT_EQ(rm_.DeclareResource(dma, "dma 3"), base::Status::kOk);
  ASSERT_EQ(rm_.Request(a, dma), base::Status::kOk);
  EXPECT_EQ(rm_.Request(b, dma), base::Status::kOk);
  EXPECT_EQ(asked, 1);
  EXPECT_TRUE(rm_.Owns(b, dma));
  EXPECT_FALSE(rm_.Owns(a, dma));
}

TEST_F(ResourceManagerTest, YieldByNonOwnerDenied) {
  const DriverId a = rm_.RegisterDriver("a");
  const DriverId b = rm_.RegisterDriver("b");
  const ResourceId io{ResourceKind::kIoWindow, 0x2000};
  ASSERT_EQ(rm_.DeclareResource(io, "regs"), base::Status::kOk);
  ASSERT_EQ(rm_.Request(a, io), base::Status::kOk);
  EXPECT_EQ(rm_.Yield(b, io), base::Status::kPermissionDenied);
}

class DiskDriverTest : public mk::KernelTest {
 protected:
  DiskDriverTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("disk0", 3)));
    rm_ = std::make_unique<ResourceManager>(kernel_);
    driver_task_ = kernel_.CreateTask("disk-driver");
    driver_ = std::make_unique<DiskDriver>(kernel_, driver_task_, disk_, rm_.get());
    client_task_ = kernel_.CreateTask("client");
    service_ = driver_->GrantTo(*client_task_);
  }

  // Runs `body` in one client thread on each store that posts a write-read's
  // write: the driver's RpcBlockStore over disk_, then the monolithic
  // kernel's KernelDiskStore over kernel_disk_. Then runs the kernel dry.
  void RunOnPostingStores(
      const std::function<void(mk::Env&, mks::BlockStore&, hw::Disk*)>& body) {
    kernel_disk_ =
        static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d1", 5)));
    kernel_store_ = std::make_unique<baseline::KernelDiskStore>(kernel_, kernel_disk_);
    kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
      RpcBlockStore rpc_store(service_, disk_->num_sectors());
      {
        SCOPED_TRACE("RpcBlockStore");
        body(env, rpc_store, disk_);
      }
      {
        SCOPED_TRACE("KernelDiskStore");
        body(env, *kernel_store_, kernel_disk_);
      }
      driver_->Stop();
    });
    EXPECT_EQ(kernel_.Run(), 0u);
  }

  hw::Disk* disk_;
  std::unique_ptr<ResourceManager> rm_;
  mk::Task* driver_task_;
  std::unique_ptr<DiskDriver> driver_;
  mk::Task* client_task_;
  mk::PortName service_;
  hw::Disk* kernel_disk_ = nullptr;
  std::unique_ptr<baseline::KernelDiskStore> kernel_store_;
};

TEST_F(DiskDriverTest, ReadWriteThroughDriver) {
  std::vector<uint8_t> persisted(hw::Disk::kSectorSize);
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    RpcBlockStore store(service_, disk_->num_sectors());
    std::vector<uint8_t> data(hw::Disk::kSectorSize * 3, 0x42);
    data[0] = 0x01;
    data[data.size() - 1] = 0x99;
    ASSERT_EQ(store.Write(env, 10, 3, data.data()), base::Status::kOk);
    std::vector<uint8_t> back(data.size());
    ASSERT_EQ(store.Read(env, 10, 3, back.data()), base::Status::kOk);
    EXPECT_EQ(back, data);
    driver_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  // Verify the data really reached the platter.
  disk_->ReadSectors(10, 1, persisted.data());
  EXPECT_EQ(persisted[0], 0x01);
  EXPECT_GT(driver_->interrupts_taken(), 0u) << "driver must run interrupt-driven";
  EXPECT_TRUE(rm_->Owns(1, {ResourceKind::kIrqLine, 3}));
}

TEST_F(DiskDriverTest, OutOfRangeRejected) {
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    RpcBlockStore store(service_, disk_->num_sectors());
    std::vector<uint8_t> buf(hw::Disk::kSectorSize);
    EXPECT_EQ(store.Read(env, disk_->num_sectors(), 1, buf.data()),
              base::Status::kInvalidArgument);
    // lba + count wraps to 1: the driver must not hand back the previous
    // transfer's DMA-buffer bytes, nor report a write that never happened.
    std::vector<uint8_t> prior(2 * hw::Disk::kSectorSize, 0x5a);
    ASSERT_EQ(store.Write(env, 0, 2, prior.data()), base::Status::kOk);
    std::vector<uint8_t> wrapped(2 * hw::Disk::kSectorSize);
    EXPECT_EQ(store.Read(env, UINT64_MAX, 2, wrapped.data()), base::Status::kInvalidArgument);
    EXPECT_EQ(wrapped, std::vector<uint8_t>(wrapped.size(), 0));
    EXPECT_EQ(store.Write(env, UINT64_MAX, 2, prior.data()), base::Status::kInvalidArgument);
    driver_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// `count` sectors with `tag` in every byte.
std::vector<uint8_t> Tagged(uint32_t count, uint8_t tag) {
  return std::vector<uint8_t>(static_cast<size_t>(count) * hw::Disk::kSectorSize, tag);
}

TEST_F(DiskDriverTest, WriteReadIsOneRpcThatWritesBeforeItReads) {
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    RpcBlockStore store(service_, disk_->num_sectors());
    ASSERT_EQ(store.Write(env, 20, 3, Tagged(3, 0x11).data()), base::Status::kOk);
    const uint64_t served = driver_->requests_served();
    const uint64_t irqs = driver_->interrupts_taken();
    std::vector<uint8_t> out(hw::Disk::kSectorSize);
    ASSERT_EQ(store.WriteThenRead(env, 20, 3, Tagged(3, 0x22).data(), 21, out.data()),
              base::Status::kOk);
    EXPECT_EQ(driver_->requests_served(), served + 1) << "one RPC carries both";
    EXPECT_EQ(driver_->interrupts_taken(), irqs + 2) << "two device commands";
    EXPECT_EQ(out, Tagged(1, 0x22)) << "the read inside the run must see the new bytes";
    // Outside the run, the read returns what was there.
    ASSERT_EQ(store.WriteThenRead(env, 30, 1, Tagged(1, 0x33).data(), 22, out.data()),
              base::Status::kOk);
    EXPECT_EQ(out, Tagged(1, 0x22));
    driver_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  std::vector<uint8_t> platter(3 * hw::Disk::kSectorSize);
  disk_->ReadSectors(20, 3, platter.data());
  EXPECT_EQ(platter, Tagged(3, 0x22));
  disk_->ReadSectors(30, 1, platter.data());
  EXPECT_EQ(platter[0], 0x33);
}

TEST_F(DiskDriverTest, MalformedWriteReadIsInvalidArgument) {
  const uint32_t n = static_cast<uint32_t>(disk_->num_sectors());
  struct Case {
    const char* what;
    DiskRequest req;
    uint32_t ref_len;
  };
  const Case cases[] = {
      {"count 0", {.op = DiskOp::kWriteRead, .read_lba = 1, .lba = 40, .count = 0}, 0},
      {"count above kMaxSectors",
       {.op = DiskOp::kWriteRead, .read_lba = 1, .lba = 40, .count = DiskEngine::kMaxSectors + 1},
       hw::Disk::kSectorSize},
      // count x 512 wraps to 512 in 32 bits, so only the count check stops it.
      {"count that wraps ref_len",
       {.op = DiskOp::kWriteRead, .read_lba = 1, .lba = 40, .count = (1u << 23) + 1},
       hw::Disk::kSectorSize},
      {"ref_len not count x 512",
       {.op = DiskOp::kWriteRead, .read_lba = 1, .lba = 40, .count = 2},
       hw::Disk::kSectorSize},
      {"lba past the disk", {.op = DiskOp::kWriteRead, .read_lba = 1, .lba = n, .count = 1},
       hw::Disk::kSectorSize},
      {"lba that wraps", {.op = DiskOp::kWriteRead, .read_lba = 1, .lba = UINT64_MAX, .count = 2},
       2 * hw::Disk::kSectorSize},
      {"read_lba past the disk",
       {.op = DiskOp::kWriteRead, .read_lba = n, .lba = 40, .count = 1},
       hw::Disk::kSectorSize},
  };
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    RpcBlockStore store(service_, n);
    mk::ClientStub stub("drv.disk.client", service_);
    ASSERT_EQ(store.Write(env, 40, 2, Tagged(2, 0x40).data()), base::Status::kOk);
    ASSERT_EQ(store.Write(env, 7, 1, Tagged(1, 0x77).data()), base::Status::kOk);
    const std::vector<uint8_t> junk = Tagged(2, 0xee);
    for (const Case& c : cases) {
      const uint64_t served = driver_->requests_served();
      DiskReply reply;
      std::vector<uint8_t> out(hw::Disk::kSectorSize);
      mk::RpcRef ref;
      ref.send_data = junk.data();
      ref.send_len = c.ref_len;
      ref.recv_buf = out.data();
      ref.recv_cap = hw::Disk::kSectorSize;
      ASSERT_EQ(stub.Call(env, c.req, &reply, &ref), base::Status::kOk) << c.what;
      EXPECT_EQ(static_cast<base::Status>(reply.status), base::Status::kInvalidArgument) << c.what;
      EXPECT_EQ(ref.recv_len, 0u) << c.what;
      EXPECT_EQ(driver_->requests_served(), served + 1) << c.what;
      // The driver still serves a canary, and the rejected write never landed.
      std::vector<uint8_t> canary(hw::Disk::kSectorSize);
      ASSERT_EQ(store.Read(env, 7, 1, canary.data()), base::Status::kOk) << c.what;
      EXPECT_EQ(canary, Tagged(1, 0x77)) << c.what;
      std::vector<uint8_t> target(2 * hw::Disk::kSectorSize);
      ASSERT_EQ(store.Read(env, 40, 2, target.data()), base::Status::kOk) << c.what;
      EXPECT_EQ(target, Tagged(2, 0x40)) << c.what;
    }
    driver_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(DiskDriverTest, DefaultWriteThenReadWritesBeforeItReads) {
  // The backdoor store the tests use keeps the default, a write and then a
  // read. The monolithic kernel's in-kernel store has its own override, which
  // takes the same order when the read lies inside the run.
  auto* kdisk = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d1", 5)));
  baseline::KernelDiskStore kernel_store(kernel_, kdisk);
  mks::BackdoorBlockStore backdoor_store(kdisk, 10'000, 64, 64);
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    for (mks::BlockStore* store : {static_cast<mks::BlockStore*>(&kernel_store),
                                   static_cast<mks::BlockStore*>(&backdoor_store)}) {
      ASSERT_EQ(store->Write(env, 20, 3, Tagged(3, 0x11).data()), base::Status::kOk);
      std::vector<uint8_t> out(hw::Disk::kSectorSize);
      ASSERT_EQ(store->WriteThenRead(env, 20, 3, Tagged(3, 0x22).data(), 22, out.data()),
                base::Status::kOk);
      EXPECT_EQ(out, Tagged(1, 0x22));
    }
    driver_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(DiskDriverTest, PostedWriteLandsBeforeTheNextCommand) {
  RunOnPostingStores([&](mk::Env& env, mks::BlockStore& store, hw::Disk* disk) {
    std::vector<uint8_t> out(hw::Disk::kSectorSize);
    std::vector<uint8_t> platter(hw::Disk::kSectorSize);
    // Read 50 lies outside the run [20, 24): the call returns with the
    // run's write still on the device.
    ASSERT_EQ(store.WriteThenRead(env, 20, 4, Tagged(4, 0x22).data(), 50, out.data()),
              base::Status::kOk);
    EXPECT_EQ(out, Tagged(1, 0));
    disk->ReadSectors(21, 1, platter.data());
    EXPECT_EQ(platter, Tagged(1, 0)) << "the write was not posted";
    // The next command waits for it.
    ASSERT_EQ(store.Read(env, 21, 1, out.data()), base::Status::kOk);
    EXPECT_EQ(out, Tagged(1, 0x22));
    ASSERT_EQ(store.WriteThenRead(env, 30, 2, Tagged(2, 0x33).data(), 60, out.data()),
              base::Status::kOk);
    ASSERT_EQ(store.Write(env, 31, 1, Tagged(1, 0x44).data()), base::Status::kOk);
    ASSERT_EQ(store.Read(env, 31, 1, out.data()), base::Status::kOk);
    EXPECT_EQ(out, Tagged(1, 0x44));
    // A write still posted when its client is done lands all the same.
    ASSERT_EQ(store.WriteThenRead(env, 40, 3, Tagged(3, 0x55).data(), 70, out.data()),
              base::Status::kOk);
  });
  for (hw::Disk* disk : {disk_, kernel_disk_}) {
    std::vector<uint8_t> platter(4 * hw::Disk::kSectorSize);
    disk->ReadSectors(20, 4, platter.data());
    EXPECT_EQ(platter, Tagged(4, 0x22)) << disk->name();
    platter.resize(2 * hw::Disk::kSectorSize);
    disk->ReadSectors(30, 2, platter.data());
    EXPECT_EQ(platter[0], 0x33) << disk->name();
    EXPECT_EQ(platter[hw::Disk::kSectorSize], 0x44) << disk->name();
    platter.resize(3 * hw::Disk::kSectorSize);
    disk->ReadSectors(40, 3, platter.data());
    EXPECT_EQ(platter, Tagged(3, 0x55)) << disk->name();
  }
  EXPECT_EQ(kernel_.interrupts_delivered(), disk_->io_count() + kernel_disk_->io_count())
      << "one interrupt per device command";
}

TEST_F(DiskDriverTest, PostedWriteReturnsAfterTheReadOnly) {
  // A write-read waits for its read's seek only. Each LBA below is apart
  // from the one before it, so every command pays a full 40,000-cycle seek;
  // a write before the read would add one more.
  RunOnPostingStores([&](mk::Env& env, mks::BlockStore& store, hw::Disk*) {
    std::vector<uint8_t> out(hw::Disk::kSectorSize);
    ASSERT_EQ(store.Read(env, 100, 1, out.data()), base::Status::kOk);  // warm the path
    uint64_t start = kernel_.cpu().cycles();
    ASSERT_EQ(store.Read(env, 200, 1, out.data()), base::Status::kOk);
    const uint64_t read = kernel_.cpu().cycles() - start;
    start = kernel_.cpu().cycles();
    ASSERT_EQ(store.WriteThenRead(env, 300, 1, Tagged(1, 0x66).data(), 400, out.data()),
              base::Status::kOk);
    const uint64_t write_read = kernel_.cpu().cycles() - start;
    EXPECT_LT(write_read, read + 20'000) << "read " << read << " cycles, write-read "
                                         << write_read;
  });
}

TEST_F(DiskDriverTest, PostedWriteMalformedExtentPostsNothing) {
  // A write extent off the disk, an empty run, or a read sector that
  // neither the 32-bit read_lba field nor the LBA register can carry: the
  // call answers kInvalidArgument before either command, so the next
  // command takes exactly its own interrupt.
  const uint64_t n = disk_->num_sectors();
  struct Extent {
    uint64_t lba;
    uint32_t count;
    uint64_t read_lba;
  };
  const Extent bad[] = {
      {n, 1, 1}, {n - 1, 2, 1}, {UINT64_MAX, 2, 1}, {5, 0, 1}, {5, 1, (uint64_t{1} << 32) + 5}};
  RunOnPostingStores([&](mk::Env& env, mks::BlockStore& store, hw::Disk* disk) {
    const std::vector<uint8_t> junk = Tagged(2, 0xee);
    for (const Extent& e : bad) {
      SCOPED_TRACE(testing::Message() << e.lba << " +" << e.count << ", read " << e.read_lba);
      const uint64_t commands = disk->io_count();
      std::vector<uint8_t> out = Tagged(1, 0xcc);
      EXPECT_EQ(store.WriteThenRead(env, e.lba, e.count, junk.data(), e.read_lba, out.data()),
                base::Status::kInvalidArgument);
      EXPECT_EQ(out, Tagged(1, 0xcc)) << "a rejected call returned data";
      EXPECT_EQ(disk->io_count(), commands) << "a rejected call reached the device";
      const uint64_t irqs = kernel_.interrupts_delivered();
      ASSERT_EQ(store.Read(env, 1, 1, out.data()), base::Status::kOk);
      EXPECT_EQ(disk->io_count(), commands + 1);
      EXPECT_EQ(kernel_.interrupts_delivered(), irqs + 1);
    }
  });
}

TEST_F(DiskDriverTest, FlushWaitsForAPostedWrite) {
  // A 1-sector cache writes sector 0, and reading sector 5 evicts it
  // through a posted write-back. The Flush after that finds nothing dirty,
  // yet returns only once the write is on the platter (it returned with the
  // platter's sector 0 still old).
  RunOnPostingStores([&](mk::Env& env, mks::BlockStore& store, hw::Disk* disk) {
    svc::BlockCache cache(kernel_, &store, 1);
    const std::vector<uint8_t> bytes = Tagged(1, 0x77);
    ASSERT_EQ(cache.WriteSector(env, 0, bytes.data()), base::Status::kOk);
    std::vector<uint8_t> out(hw::Disk::kSectorSize);
    ASSERT_EQ(cache.ReadSector(env, 5, out.data()), base::Status::kOk);
    ASSERT_EQ(cache.Flush(env), base::Status::kOk);
    std::vector<uint8_t> platter(hw::Disk::kSectorSize);
    disk->ReadSectors(0, 1, platter.data());
    EXPECT_EQ(platter, bytes) << "Flush returned with the write-back still on the device";
    // With nothing posted, a Flush makes no request and no device command.
    const uint64_t served = driver_->requests_served();
    const uint64_t commands = disk->io_count();
    ASSERT_EQ(cache.Flush(env), base::Status::kOk);
    EXPECT_EQ(driver_->requests_served(), served);
    EXPECT_EQ(disk->io_count(), commands);
  });
}

class NicDriverTest : public mk::KernelTest {
 protected:
  NicDriverTest() {
    nic_ = static_cast<hw::Nic*>(machine_.AddDevice(std::make_unique<hw::Nic>("nic0", 5)));
    driver_task_ = kernel_.CreateTask("nic-driver");
    driver_ = std::make_unique<NicDriver>(kernel_, driver_task_, nic_, nullptr);
    client_task_ = kernel_.CreateTask("client");
    service_ = driver_->GrantTo(*client_task_);
  }

  hw::Nic* nic_;
  mk::Task* driver_task_;
  std::unique_ptr<NicDriver> driver_;
  mk::Task* client_task_;
  mk::PortName service_;
};

TEST_F(NicDriverTest, LoopbackFrameThroughDriver) {
  std::vector<uint8_t> got;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NicClient nic(service_);
    std::vector<uint8_t> frame(128);
    for (size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<uint8_t>(i * 3);
    }
    ASSERT_EQ(nic.Send(env, frame.data(), static_cast<uint32_t>(frame.size())),
              base::Status::kOk);
    std::vector<uint8_t> buf(2048);
    auto len = nic.Receive(env, buf.data(), static_cast<uint32_t>(buf.size()));
    ASSERT_TRUE(len.ok());
    got.assign(buf.begin(), buf.begin() + *len);
    EXPECT_EQ(got, frame);
    driver_->Stop();
    kernel_.TerminateTask(driver_task_);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(driver_->frames_tx(), 1u);
  EXPECT_EQ(driver_->frames_rx(), 1u);
}

// Two rectangles overlap when they share a pixel. Touching edges and an
// empty rectangle do not, and an end past 2^32 does not wrap to the origin.
TEST(FbDriverTest, RectsOverlapWhenTheyShareAPixel) {
  EXPECT_TRUE(RectsOverlap(0, 0, 64, 64, 32, 32, 64, 48));
  EXPECT_TRUE(RectsOverlap(10, 10, 100, 100, 20, 20, 10, 10));  // one inside the other
  EXPECT_FALSE(RectsOverlap(0, 0, 64, 64, 64, 0, 64, 64));      // side by side
  EXPECT_FALSE(RectsOverlap(0, 0, 64, 64, 0, 64, 64, 64));      // one above the other
  EXPECT_FALSE(RectsOverlap(10, 10, 0, 64, 0, 0, 64, 64));      // empty
  constexpr uint32_t kHuge = 0xFFFFFFFA;
  EXPECT_FALSE(RectsOverlap(kHuge, 0, 10, 10, 0, 0, 4, 10));  // x + w would wrap to 4
  EXPECT_TRUE(RectsOverlap(10, 0, kHuge, 10, 100, 0, 10, 10));
}

class OoddmTest : public mk::KernelTest {};

TEST_F(OoddmTest, FineAndCoarseDriversReadSameData) {
  auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d", 3)));
  std::vector<uint8_t> content(hw::Disk::kSectorSize, 0x7e);
  disk->WriteSectors(5, 1, content.data());
  auto dma = machine_.mem().AllocContiguous(1);
  ASSERT_TRUE(dma.ok());
  mk::Task* task = kernel_.CreateTask("drv");
  std::vector<uint8_t> fine_out(hw::Disk::kSectorSize);
  std::vector<uint8_t> coarse_out(hw::Disk::kSectorSize);
  uint64_t fine_calls = 0;
  kernel_.CreateThread(task, "t", [&](mk::Env& env) {
    TDiskDrive fine(kernel_, disk, *dma);
    ASSERT_EQ(fine.ReadBlocks(env, 5, 1, fine_out.data()), base::Status::kOk);
    fine_calls = fine.virtual_calls();
    CoarseDiskDriver coarse(kernel_, disk, *dma);
    ASSERT_EQ(coarse.ReadBlocks(env, 5, 1, coarse_out.data()), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(fine_out, content);
  EXPECT_EQ(coarse_out, content);
  EXPECT_GT(fine_calls, 10u) << "fine-grained driver must dispatch many short virtuals";
}

TEST_F(OoddmTest, FineGrainedCostsMoreThanCoarse) {
  auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d", 3)));
  auto dma = machine_.mem().AllocContiguous(1);
  ASSERT_TRUE(dma.ok());
  mk::Task* task = kernel_.CreateTask("drv");
  uint64_t fine_cycles = 0;
  uint64_t coarse_cycles = 0;
  kernel_.CreateThread(task, "t", [&](mk::Env& env) {
    TDiskDrive fine(kernel_, disk, *dma);
    CoarseDiskDriver coarse(kernel_, disk, *dma);
    std::vector<uint8_t> buf(hw::Disk::kSectorSize);
    // Warm both paths, then compare the driver-side overhead. Disk time is
    // identical for both, so measure with the device time excluded by using
    // the same request repeatedly and diffing instructions instead.
    auto measure = [&](auto& driver) {
      for (int i = 0; i < 3; ++i) {
        (void)driver.ReadBlocks(env, 1, 1, buf.data());
      }
      const uint64_t i0 = kernel_.Counters().instructions;
      for (int i = 0; i < 10; ++i) {
        (void)driver.ReadBlocks(env, 1, 1, buf.data());
      }
      return kernel_.Counters().instructions - i0;
    };
    fine_cycles = measure(fine);
    coarse_cycles = measure(coarse);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(fine_cycles, coarse_cycles) << "fine-grained objects must execute more instructions";
}

}  // namespace
}  // namespace drv
