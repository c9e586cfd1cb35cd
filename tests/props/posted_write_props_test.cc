// Property test for posted write-backs: seeded streams of Read, Write and
// WriteThenRead over a 256-sector range, through the user-level disk driver
// (RpcBlockStore) and through the monolithic kernel's in-kernel store
// (KernelDiskStore), against an in-memory model of the platter. Both stores
// post a write-read's write when its read lies outside the run, and each
// later command must wait for that write. The oracle: every read returns the
// model's bytes; once the kernel has run dry the platter equals the model;
// and the kernel delivered one interrupt per device command. Each seed runs
// on a fresh machine. A failing stream prints its seed and ops; replay with
// WPOS_PROPS_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/baseline/monolithic.h"
#include "src/drv/disk_driver.h"
#include "tests/props/seeds.h"

namespace drv {
namespace {

constexpr uint64_t kRange = 256;
constexpr uint32_t kSector = hw::Disk::kSectorSize;
constexpr int kOpsPerSeed = 400;

enum class StoreKind { kRpcBlockStore, kKernelDiskStore };

class PostedWritePropsTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  // `count` sectors of fresh bytes, each stamped with a serial number so no
  // two written sectors are alike.
  std::vector<uint8_t> Fresh(base::Rng& rng, uint32_t count) {
    std::vector<uint8_t> data(static_cast<size_t>(count) * kSector);
    for (uint32_t i = 0; i < count; ++i) {
      uint8_t* sector = data.data() + static_cast<size_t>(i) * kSector;
      std::memset(sector, static_cast<int>(rng.Next() & 0xff), kSector);
      ++serial_;
      std::memcpy(sector, &serial_, sizeof(serial_));
    }
    return data;
  }

  // One seeded stream through `store`; `model` is the platter it should
  // leave behind.
  void RunStream(mk::Env& env, mks::BlockStore& store, uint64_t seed,
                 std::vector<uint8_t>& model) {
    base::Rng rng(seed * 1000 + static_cast<uint64_t>(GetParam()));
    std::ostringstream trace;
    auto model_at = [&](uint64_t lba) { return model.data() + lba * kSector; };
    for (int step = 0; step < kOpsPerSeed; ++step) {
      const std::string where = "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      const uint64_t r = rng.NextBelow(100);
      if (r < 60) {
        const uint32_t count = static_cast<uint32_t>(rng.NextInRange(1, 8));
        const uint64_t lba = rng.NextBelow(kRange - count + 1);
        if (r < 30) {
          trace << "read " << lba << " +" << count << "\n";
          std::vector<uint8_t> out(static_cast<size_t>(count) * kSector);
          ASSERT_EQ(store.Read(env, lba, count, out.data()), base::Status::kOk) << where;
          ASSERT_EQ(0, std::memcmp(out.data(), model_at(lba), out.size()))
              << "read of [" << lba << ", +" << count << "), " << where << "\n"
              << trace.str();
        } else {
          trace << "write " << lba << " +" << count << "\n";
          const std::vector<uint8_t> data = Fresh(rng, count);
          ASSERT_EQ(store.Write(env, lba, count, data.data()), base::Status::kOk) << where;
          std::memcpy(model_at(lba), data.data(), data.size());
        }
        continue;
      }
      // Runs up to one command's limit, half of them short.
      const uint32_t wcount = static_cast<uint32_t>(
          rng.NextInRange(1, rng.NextBool(0.5) ? 8 : DiskEngine::kMaxSectors));
      const uint64_t wlba = rng.NextBelow(kRange - wcount + 1);
      const uint64_t rlba = rng.NextBool(0.4) ? wlba + rng.NextBelow(wcount) : rng.NextBelow(kRange);
      const bool inside = rlba >= wlba && rlba < wlba + wcount;
      ++(inside ? inside_ : outside_);
      trace << "write-read " << wlba << " +" << wcount << ", read " << rlba << "\n";
      const std::vector<uint8_t> data = Fresh(rng, wcount);
      std::vector<uint8_t> out(kSector);
      ASSERT_EQ(store.WriteThenRead(env, wlba, wcount, data.data(), rlba, out.data()),
                base::Status::kOk)
          << where << "\n"
          << trace.str();
      std::memcpy(model_at(wlba), data.data(), data.size());
      ASSERT_EQ(0, std::memcmp(out.data(), model_at(rlba), kSector))
          << "write-read's read of " << rlba << (inside ? ", inside" : ", outside")
          << " the run, " << where << "\n"
          << trace.str();
    }
  }

  uint64_t serial_ = 0;
  uint64_t inside_ = 0;
  uint64_t outside_ = 0;
};

TEST_P(PostedWritePropsTest, SeededStreamsMatchTheModel) {
  for (uint64_t seed : props::SeedsUnderTest()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
    mk::Kernel kernel(&machine);
    auto* disk = static_cast<hw::Disk*>(machine.AddDevice(std::make_unique<hw::Disk>("d", 3)));
    mk::Task* client = kernel.CreateTask("client");
    std::unique_ptr<DiskDriver> driver;
    std::unique_ptr<baseline::KernelDiskStore> kernel_store;
    mk::PortName service = mk::kNullPort;
    if (GetParam() == StoreKind::kRpcBlockStore) {
      driver = std::make_unique<DiskDriver>(kernel, kernel.CreateTask("disk-driver"), disk,
                                            nullptr);
      service = driver->GrantTo(*client);
    } else {
      kernel_store = std::make_unique<baseline::KernelDiskStore>(kernel, disk);
    }
    std::vector<uint8_t> model(kRange * kSector, 0);
    kernel.CreateThread(client, "c", [&](mk::Env& env) {
      if (driver != nullptr) {
        RpcBlockStore store(service, disk->num_sectors());
        RunStream(env, store, seed, model);
        driver->Stop();
      } else {
        RunStream(env, *kernel_store, seed, model);
      }
    });
    ASSERT_EQ(kernel.Run(), 0u);
    if (HasFatalFailure()) {
      return;
    }
    std::vector<uint8_t> platter(model.size());
    disk->ReadSectors(0, kRange, platter.data());
    for (uint64_t lba = 0; lba < kRange; ++lba) {
      ASSERT_EQ(0, std::memcmp(platter.data() + lba * kSector, model.data() + lba * kSector,
                               kSector))
          << "the platter diverges from the model at sector " << lba;
    }
    EXPECT_EQ(kernel.interrupts_delivered(), disk->io_count())
        << "one interrupt per device command";
    EXPECT_EQ(kernel.CheckInvariants(), 0u);
  }
  EXPECT_GT(inside_, 0u) << "no write-read read inside its run";
  EXPECT_GT(outside_, 0u) << "no write-read posted its write";
}

INSTANTIATE_TEST_SUITE_P(Stores, PostedWritePropsTest,
                         ::testing::Values(StoreKind::kRpcBlockStore,
                                           StoreKind::kKernelDiskStore),
                         [](const ::testing::TestParamInfo<StoreKind>& info) {
                           return info.param == StoreKind::kRpcBlockStore
                                      ? std::string("RpcBlockStore")
                                      : std::string("KernelDiskStore");
                         });

}  // namespace
}  // namespace drv
