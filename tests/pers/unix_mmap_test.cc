// mmap through the UNIX personality: MAP_SHARED maps the file server's
// exported memory object directly, MAP_PRIVATE maps a COW shadow over it,
// Msync publishes mapped stores to the file, and the client-side FS cache
// stays coherent with mapped views.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/pers/unixp/unix.h"
#include "tests/mk/kernel_test_fixture.h"

namespace pers {
namespace {

class UnixMmapTest : public mk::KernelTest {
 protected:
  UnixMmapTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    fs_ = std::make_unique<svc::FileServer>(kernel_, kernel_.CreateTask("file-server"));
    fs_->EnableMapping();
    EXPECT_EQ(fs_->AddVolume("/", store_.get(), svc::PfsKind::kJfs), base::Status::kOk);
    fs_->StartMkfs();
  }

  static uint8_t PatternByte(uint64_t i) { return static_cast<uint8_t>(i * 37 + 11); }

  // Creates the file with `size` patterned bytes through the fd.
  static void FillFile(mk::Env& env, UnixProcess* proc, int fd, uint64_t size) {
    std::vector<uint8_t> data(size);
    for (uint64_t i = 0; i < size; ++i) {
      data[i] = PatternByte(i);
    }
    auto wrote = proc->Write(env, fd, data.data(), static_cast<uint32_t>(size));
    ASSERT_TRUE(wrote.ok());
    ASSERT_EQ(*wrote, size);
    ASSERT_TRUE(proc->Lseek(env, fd, 0, 0).ok());
  }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<svc::FileServer> fs_;
};

constexpr uint64_t kOddSize = hw::kPageSize + 123;

TEST_F(UnixMmapTest, SharedMappingMatchesReadAndMsyncPublishesStores) {
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("mapper", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/shared.dat", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    FillFile(env, proc, *fd, kOddSize);
    auto addr = proc->Mmap(env, *fd, kOddSize, /*shared=*/true);
    ASSERT_TRUE(addr.ok()) << base::StatusName(addr.status());

    // Differential: every mapped byte equals the read() byte, including the
    // short final page; past EOF the mapping reads zeros.
    std::vector<uint8_t> via_map(kOddSize);
    ASSERT_EQ(env.CopyIn(*addr, via_map.data(), via_map.size()), base::Status::kOk);
    std::vector<uint8_t> via_read(kOddSize);
    auto got = proc->Read(env, *fd, via_read.data(), static_cast<uint32_t>(kOddSize));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, kOddSize);
    EXPECT_EQ(via_map, via_read);
    uint8_t tail[8] = {};
    ASSERT_EQ(env.CopyIn(*addr + kOddSize, tail, sizeof(tail)), base::Status::kOk);
    for (uint8_t b : tail) {
      EXPECT_EQ(b, 0) << "bytes past EOF read as zeros";
    }

    // A mapped store is NOT visible to read() until msync...
    const char tag[] = "mapped!";
    ASSERT_EQ(env.CopyOut(*addr + 200, tag, sizeof(tag)), base::Status::kOk);
    char before[sizeof(tag)] = {};
    ASSERT_TRUE(proc->Lseek(env, *fd, 200, 0).ok());
    ASSERT_TRUE(proc->Read(env, *fd, before, sizeof(tag)).ok());
    EXPECT_NE(std::memcmp(before, tag, sizeof(tag)), 0)
        << "stores stay in the mapping until msync";
    // ...and IS after.
    ASSERT_EQ(proc->Msync(env, *addr, kOddSize), base::Status::kOk);
    char after[sizeof(tag)] = {};
    ASSERT_TRUE(proc->Lseek(env, *fd, 200, 0).ok());
    ASSERT_TRUE(proc->Read(env, *fd, after, sizeof(tag)).ok());
    EXPECT_EQ(std::memcmp(after, tag, sizeof(tag)), 0);

    // msync never extends the file: the store landed inside the page but the
    // size is still the original odd size.
    auto end = proc->Lseek(env, *fd, 0, 2);
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(*end, kOddSize);

    ASSERT_EQ(proc->Munmap(env, *addr), base::Status::kOk);
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    EXPECT_EQ(fs_->mapped_objects(), 0u);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(UnixMmapTest, PrivateMappingIsCopyOnWriteAndMsyncIsANoop) {
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("cow", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/private.dat", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    FillFile(env, proc, *fd, kOddSize);
    auto addr = proc->Mmap(env, *fd, kOddSize, /*shared=*/false);
    ASSERT_TRUE(addr.ok()) << base::StatusName(addr.status());

    // The private view starts as the file contents...
    uint8_t b = 0;
    ASSERT_EQ(env.CopyIn(*addr + 7, &b, 1), base::Status::kOk);
    EXPECT_EQ(b, PatternByte(7));
    // ...a store changes the view...
    const uint8_t poke = 0xC3;
    ASSERT_EQ(env.CopyOut(*addr + 7, &poke, 1), base::Status::kOk);
    ASSERT_EQ(env.CopyIn(*addr + 7, &b, 1), base::Status::kOk);
    EXPECT_EQ(b, poke);
    // ...and msync of a private mapping changes NOTHING in the file.
    ASSERT_EQ(proc->Msync(env, *addr, kOddSize), base::Status::kOk);
    uint8_t file_b = 0;
    ASSERT_TRUE(proc->Lseek(env, *fd, 7, 0).ok());
    ASSERT_TRUE(proc->Read(env, *fd, &file_b, 1).ok());
    EXPECT_EQ(file_b, PatternByte(7)) << "private stores never reach the file";

    ASSERT_EQ(proc->Munmap(env, *addr), base::Status::kOk);
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// The FS cache and mapped views must agree: with the client cache on, an fd
// write while a mapping is live is written through (not write-behind), so
// the server invalidates the clean mapped page and the next mapped read
// sees the new bytes.
TEST_F(UnixMmapTest, FsCacheStaysCoherentWithMappedViews) {
  UnixPersonality unix_pers(kernel_, *fs_);
  unix_pers.EnableFsCache();
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("cached", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/cached.dat", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    FillFile(env, proc, *fd, kOddSize);
    auto addr = proc->Mmap(env, *fd, kOddSize, /*shared=*/true);
    ASSERT_TRUE(addr.ok()) << base::StatusName(addr.status());

    // Fault the first page in (clean).
    uint8_t b = 0;
    ASSERT_EQ(env.CopyIn(*addr, &b, 1), base::Status::kOk);
    EXPECT_EQ(b, PatternByte(0));
    // fd write over the mapped page, through the cache.
    const uint8_t fresh = 0xD4;
    ASSERT_TRUE(proc->Lseek(env, *fd, 0, 0).ok());
    ASSERT_TRUE(proc->Write(env, *fd, &fresh, 1).ok());
    // The mapped view must observe it: live mappings force write-through,
    // the server's invalidation drops the clean page, the read refaults.
    ASSERT_EQ(env.CopyIn(*addr, &b, 1), base::Status::kOk);
    EXPECT_EQ(b, fresh) << "cached fd writes must reach live mappings";

    // And the reverse: a mapped store published by msync is visible through
    // cached reads (msync goes through the same session the cache fronts).
    const uint8_t store = 0xE5;
    ASSERT_EQ(env.CopyOut(*addr + 64, &store, 1), base::Status::kOk);
    ASSERT_EQ(proc->Msync(env, *addr, kOddSize), base::Status::kOk);
    uint8_t file_b = 0;
    ASSERT_TRUE(proc->Lseek(env, *fd, 64, 0).ok());
    ASSERT_TRUE(proc->Read(env, *fd, &file_b, 1).ok());
    EXPECT_EQ(file_b, store);

    ASSERT_EQ(proc->Munmap(env, *addr), base::Status::kOk);
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(UnixMmapTest, MmapRejectsPipesAndZeroLength) {
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("edge", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/edge.dat", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    auto zero = proc->Mmap(env, *fd, 0, /*shared=*/true);
    EXPECT_FALSE(zero.ok()) << "zero-length mmap is invalid";
    auto nofd = proc->Mmap(env, 99, hw::kPageSize, /*shared=*/true);
    EXPECT_FALSE(nofd.ok());
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

}  // namespace
}  // namespace pers
