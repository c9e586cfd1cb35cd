#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/baseline/monolithic.h"
#include "src/drv/disk_driver.h"
#include "src/drv/resource_manager.h"
#include "src/svc/fs/volume.h"
#include "tests/mk/kernel_test_fixture.h"

namespace baseline {
namespace {

class MonolithicTest : public mk::KernelTest {
 protected:
  MonolithicTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    fb_dev_ = new hw::Framebuffer("fb0", &machine_, 640, 480);
    machine_.AddDevice(std::unique_ptr<hw::Device>(fb_dev_));
    store_ = std::make_unique<KernelDiskStore>(kernel_, disk_);
    volume_ =
        std::make_unique<svc::Volume>(kernel_, store_.get(), svc::PfsKind::kHpfs, 65536, 1024);
    os_ = std::make_unique<MonolithicOs>(kernel_, &volume_->pfs(), fb_dev_);
  }

  hw::Disk* disk_;
  hw::Framebuffer* fb_dev_;
  std::unique_ptr<KernelDiskStore> store_;
  std::unique_ptr<svc::Volume> volume_;
  std::unique_ptr<MonolithicOs> os_;
};

TEST_F(MonolithicTest, FileApiViaTraps) {
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    ASSERT_EQ(volume_->pfs().Format(env), base::Status::kOk);
    auto h = os_->Open(env, "/config.sys", svc::kFsCreate);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(os_->Write(env, *h, 0, "FILES=40", 8).ok());
    char buf[16] = {};
    auto got = os_->Read(env, *h, 0, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(buf, *got), "FILES=40");
    ASSERT_EQ(os_->Close(env, *h), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GE(os_->syscalls(), 4u);
}

TEST_F(MonolithicTest, EmptyOrRelativePathIsNotFound) {
  // Regression: the walk skipped a path's first character, so "foo" was
  // walked as "oo" (Open with kFsCreate made "/oo") and "" opened the root.
  // As in the file server (FileServerTest.EmptyOrRelativePathIsNotFound),
  // every path op now fails with kNotFound and creates nothing.
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    ASSERT_EQ(volume_->pfs().Format(env), base::Status::kOk);
    for (const char* bad : {"", "foo"}) {
      SCOPED_TRACE(std::string("'") + bad + "'");
      EXPECT_EQ(os_->Open(env, bad, 0).status(), base::Status::kNotFound);
      EXPECT_EQ(os_->Unlink(env, bad), base::Status::kNotFound);
      EXPECT_EQ(os_->ReadDir(env, bad).status(), base::Status::kNotFound);
      EXPECT_EQ(os_->Open(env, bad, svc::kFsCreate).status(), base::Status::kNotFound);
      EXPECT_EQ(os_->Mkdir(env, bad), base::Status::kNotFound);
    }
    auto root = os_->ReadDir(env, "/");
    ASSERT_TRUE(root.ok()) << base::StatusName(root.status());
    for (const svc::DirEntry& entry : *root) {
      ADD_FAILURE() << "the root lists '" << entry.name << "'";
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(MonolithicTest, InKernelDriverIsInterruptDriven) {
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    std::vector<uint8_t> sector(hw::Disk::kSectorSize, 0x3c);
    ASSERT_EQ(store_->Write(env, 100, 1, sector.data()), base::Status::kOk);
    std::vector<uint8_t> back(hw::Disk::kSectorSize);
    ASSERT_EQ(store_->Read(env, 100, 1, back.data()), base::Status::kOk);
    EXPECT_EQ(back, sector);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GE(machine_.pic().raise_count(3), 2u);
}

TEST_F(MonolithicTest, FileOpsCheaperThanThroughFileServer) {
  // The heart of Table 1: the same PFS reached by trap + call must beat the
  // RPC path through the user-level file server (which also crosses to the
  // disk-driver task). Here the PFS is warmed so the comparison isolates the
  // access structure, not the disk.
  mk::Task* app = kernel_.CreateTask("app");
  uint64_t mono_cycles = 0;
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    ASSERT_EQ(volume_->pfs().Format(env), base::Status::kOk);
    auto h = os_->Open(env, "/bench.dat", svc::kFsCreate);
    ASSERT_TRUE(h.ok());
    char block[512] = {};
    for (int i = 0; i < 5; ++i) {  // warm
      ASSERT_TRUE(os_->Write(env, *h, 0, block, sizeof(block)).ok());
      ASSERT_TRUE(os_->Read(env, *h, 0, block, sizeof(block)).ok());
    }
    const uint64_t c0 = kernel_.cpu().cycles();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(os_->Write(env, *h, 0, block, sizeof(block)).ok());
      ASSERT_TRUE(os_->Read(env, *h, 0, block, sizeof(block)).ok());
    }
    mono_cycles = kernel_.cpu().cycles() - c0;
    ASSERT_EQ(os_->Close(env, *h), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(mono_cycles, 0u);
  // The multi-server equivalent is measured in bench_table1; here just
  // sanity-check that the monolithic path is well under a millisecond per op
  // once warm (no RPC, no address-space switches).
  EXPECT_LT(mono_cycles / 100, 133'000u);
}

// The in-kernel store and the WPOS path (RpcBlockStore to the user-level
// disk driver) answer the same out-of-range extents the same way, and
// neither touches the platter: an lba at the end, an lba that the 32-bit LBA
// register would truncate to sector 5, and a 2-sector read from the last
// sector.
TEST_F(MonolithicTest, BothBlockStoresRejectOutOfRangeExtents) {
  auto* rpc_disk = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>(
      "d1", 5, hw::Disk::Geometry{.sectors = disk_->num_sectors()})));
  drv::ResourceManager rm(kernel_);
  drv::DiskDriver driver(kernel_, kernel_.CreateTask("disk-driver"), rpc_disk, &rm);
  mk::Task* app = kernel_.CreateTask("app");
  const mk::PortName service = driver.GrantTo(*app);
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    drv::RpcBlockStore rpc_store(service, rpc_disk->num_sectors());
    for (mks::BlockStore* store : {static_cast<mks::BlockStore*>(store_.get()),
                                   static_cast<mks::BlockStore*>(&rpc_store)}) {
      const uint64_t n = store->num_sectors();
      const std::vector<uint8_t> sector5(hw::Disk::kSectorSize, 0x55);
      ASSERT_EQ(store->Write(env, 5, 1, sector5.data()), base::Status::kOk);
      std::vector<uint8_t> buf(2 * hw::Disk::kSectorSize, 0);
      EXPECT_EQ(store->Read(env, n, 1, buf.data()), base::Status::kInvalidArgument);
      const std::vector<uint8_t> junk(hw::Disk::kSectorSize, 0xee);
      EXPECT_EQ(store->Write(env, (uint64_t{1} << 32) + 5, 1, junk.data()),
                base::Status::kInvalidArgument);
      EXPECT_EQ(store->Read(env, n - 1, 2, buf.data()), base::Status::kInvalidArgument);
      EXPECT_EQ(buf, std::vector<uint8_t>(buf.size(), 0)) << "a rejected read wrote bytes";
      std::vector<uint8_t> back(hw::Disk::kSectorSize);
      ASSERT_EQ(store->Read(env, 5, 1, back.data()), base::Status::kOk);
      EXPECT_EQ(back, sector5);
    }
    driver.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(MonolithicTest, WindowMessagesThroughKernelQueues) {
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto hwnd = os_->WinCreate(env, 10, 10, 100, 100);
    ASSERT_TRUE(hwnd.ok());
    ASSERT_EQ(os_->WinPost(env, *hwnd, 0xf1, 1, 2), base::Status::kOk);
    auto msg = os_->WinGet(env, *hwnd);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->msg, 0xf1u);
    EXPECT_EQ(msg->p2, 2u);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(MonolithicTest, DrawGoesThroughGreThunk) {
  mk::Task* app = kernel_.CreateTask("app");
  uint64_t thunked = 0;
  uint64_t direct_estimate = 0;
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto vram = os_->MapVram(*app);
    ASSERT_TRUE(vram.ok());
    auto hwnd = os_->WinCreate(env, 0, 0, 200, 200);
    ASSERT_TRUE(hwnd.ok());
    // Warm.
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(os_->WinFillRect(env, *app, *vram, *hwnd, 0, 0, 64, 8, 1), base::Status::kOk);
    }
    const uint64_t i0 = kernel_.Counters().instructions;
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(os_->WinFillRect(env, *app, *vram, *hwnd, 0, 0, 64, 8, 1), base::Status::kOk);
    }
    thunked = kernel_.Counters().instructions - i0;
    // Rough lower bound for the raw pixel work of the same 20 fills.
    direct_estimate = 20ull * 8 * (8 + 64 / 8);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(thunked, direct_estimate + 20ull * 300)
      << "each draw call must pay the 16-bit GRE thunk";
}

// As on the PM desktop: a switch repaints a window, every line, only when a
// window above it overlaps it.
TEST_F(MonolithicTest, WindowSwitchRepaints) {
  kernel_.tracer().Enable();
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto vram = os_->MapVram(*app);
    ASSERT_TRUE(vram.ok());
    auto w1 = os_->WinCreate(env, 0, 0, 64, 64);
    auto w2 = os_->WinCreate(env, 32, 32, 64, 48);
    auto w3 = os_->WinCreate(env, 200, 200, 64, 64);
    ASSERT_TRUE(w1.ok());
    ASSERT_TRUE(w2.ok());
    ASSERT_TRUE(w3.ok());
    const auto expect_switch = [&](uint32_t hwnd, uint64_t lines) {
      const uint64_t lines0 = mk::RegionCalls(kernel_, "monos2.gre.draw_loop");
      ASSERT_EQ(os_->WinSwitch(env, *app, *vram, hwnd), base::Status::kOk);
      EXPECT_EQ(mk::RegionCalls(kernel_, "monos2.gre.draw_loop") - lines0, lines)
          << "window " << hwnd;
    };
    expect_switch(*w1, 64);  // two covers it
    expect_switch(*w2, 48);  // now one covers two
    expect_switch(*w3, 0);   // overlaps neither
    expect_switch(*w2, 0);   // only three, which it does not meet, is above it
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(MonolithicTest, DrawWritesPixels) {
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto vram = os_->MapVram(*app);
    ASSERT_TRUE(vram.ok());
    auto hwnd = os_->WinCreate(env, 50, 60, 100, 100);
    ASSERT_TRUE(hwnd.ok());
    ASSERT_EQ(os_->WinFillRect(env, *app, *vram, *hwnd, 5, 5, 10, 1, 0x77),
              base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(machine_.mem().ReadU8(fb_dev_->vram_base() + (60 + 5) * 640 + 55), 0x77);
}

// Each window takes a kernel semaphore, 64 B of a heap that never frees. On
// a full heap WinCreate answers kResourceShortage, and the windows made
// before it still post and get messages.
TEST_F(MonolithicTest, WinCreateWithTheKernelHeapFullIsResourceShortage) {
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    std::vector<uint32_t> windows;
    for (int i = 0; i < 3; ++i) {
      auto hwnd = os_->WinCreate(env, 10, 10, 100, 100);
      ASSERT_TRUE(hwnd.ok());
      windows.push_back(*hwnd);
    }
    mk::FillKernelHeap(kernel_);
    EXPECT_EQ(os_->WinCreate(env, 10, 10, 100, 100).status(),
              base::Status::kResourceShortage);
    for (uint32_t hwnd : windows) {
      ASSERT_EQ(os_->WinPost(env, hwnd, 0xf1, hwnd, 2), base::Status::kOk);
      auto msg = os_->WinGet(env, hwnd);
      ASSERT_TRUE(msg.ok());
      EXPECT_EQ(msg->p1, hwnd);
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// As PmTest.WrappedRectanglesAreInvalidArgument, on the monolithic system.
TEST_F(MonolithicTest, WrappedRectanglesAreInvalidArgument) {
  constexpr uint32_t kHuge = 0xFFFFFFFA;
  mk::Task* app = kernel_.CreateTask("app");
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto vram = os_->MapVram(*app);
    ASSERT_TRUE(vram.ok());
    EXPECT_EQ(os_->WinCreate(env, 10, 0, kHuge, 10).status(), base::Status::kInvalidArgument);
    EXPECT_EQ(os_->WinCreate(env, 0, 10, 10, kHuge).status(), base::Status::kInvalidArgument);
    auto hwnd = os_->WinCreate(env, 100, 50, 200, 100);
    ASSERT_TRUE(hwnd.ok());
    EXPECT_EQ(os_->WinFillRect(env, *app, *vram, *hwnd, 10, 20, kHuge, 1, 0x77),
              base::Status::kInvalidArgument);
    EXPECT_EQ(os_->WinFillRect(env, *app, *vram, *hwnd, 10, 20, 1, kHuge, 0x77),
              base::Status::kInvalidArgument);
    EXPECT_EQ(os_->WinBitBlt(env, *app, *vram, *hwnd, 10, 20, kHuge, 1),
              base::Status::kInvalidArgument);
    EXPECT_EQ(os_->WinBitBlt(env, *app, *vram, *hwnd, 10, 20, 1, kHuge),
              base::Status::kInvalidArgument);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  std::vector<uint8_t> vram(640 * 480);
  machine_.mem().Read(fb_dev_->vram_base(), vram.data(), vram.size());
  EXPECT_EQ(std::count_if(vram.begin(), vram.end(), [](uint8_t px) { return px != 0; }), 0)
      << "pixels painted";
}

}  // namespace
}  // namespace baseline
