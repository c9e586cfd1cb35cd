#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/inode_fs.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

// A store that counts its reads.
struct CountingStore : mks::BackdoorBlockStore {
  using BackdoorBlockStore::BackdoorBlockStore;
  base::Status Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) override {
    ++reads;
    return BackdoorBlockStore::Read(env, lba, count, out);
  }
  int reads = 0;
};

// Buffer-cache lookups, hits and misses, that `op` makes.
uint64_t Lookups(const BlockCache& cache, const std::function<void()>& op) {
  const uint64_t before = cache.hits() + cache.misses();
  op();
  return cache.hits() + cache.misses() - before;
}

// Runs `body` inside a simulated thread with a block cache over a fresh disk.
class PfsTest : public mk::KernelTest {
 protected:
  PfsTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d", 3)));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk_, /*latency_ns=*/10'000);
    cache_ = std::make_unique<BlockCache>(kernel_, store_.get(), 512);
    task_ = kernel_.CreateTask("fs");
  }

  void RunInThread(std::function<void(mk::Env&)> body) {
    kernel_.CreateThread(task_, "t", std::move(body));
    ASSERT_EQ(kernel_.Run(), 0u);
  }

  // The two-thread tests: two threads of one task inside one small cache,
  // as the file server's request and pager threads share its BlockCache;
  // each blocks in the store on a miss. `model_` holds every sector's last
  // bytes written, one tag byte repeated; sector `lba` starts on the platter
  // with tag 0x10 + lba.
  void SeedPlatter() {
    for (uint64_t lba = 0; lba < 16; ++lba) {
      model_[lba] = static_cast<uint8_t>(0x10 + lba);
      const std::vector<uint8_t> bytes(BlockCache::kSectorSize, model_[lba]);
      disk_->WriteSectors(lba, 1, bytes.data());
    }
  }

  void Write(mk::Env& env, BlockCache& cache, uint64_t lba, uint8_t tag) {
    const std::vector<uint8_t> bytes(BlockCache::kSectorSize, tag);
    ASSERT_EQ(cache.WriteSector(env, lba, bytes.data()), base::Status::kOk);
    model_[lba] = tag;
  }

  void ExpectRead(mk::Env& env, BlockCache& cache, uint64_t lba) {
    std::vector<uint8_t> out(BlockCache::kSectorSize);
    ASSERT_EQ(cache.ReadSector(env, lba, out.data()), base::Status::kOk);
    EXPECT_EQ(out, std::vector<uint8_t>(BlockCache::kSectorSize, model_[lba])) << "sector " << lba;
  }

  // Runs both threads to completion, then flushes from a third and checks
  // the platter against the model.
  void RunBothThenFlush(BlockCache& cache, std::function<void(mk::Env&)> a,
                        std::function<void(mk::Env&)> b) {
    kernel_.CreateThread(task_, "file-server", std::move(a));
    kernel_.CreateThread(task_, "fs-pager", std::move(b));
    ASSERT_EQ(kernel_.Run(), 0u);
    RunInThread([&](mk::Env& env) { ASSERT_EQ(cache.Flush(env), base::Status::kOk); });
    for (const auto& [lba, tag] : model_) {
      std::vector<uint8_t> platter(BlockCache::kSectorSize);
      disk_->ReadSectors(lba, 1, platter.data());
      EXPECT_EQ(platter, std::vector<uint8_t>(BlockCache::kSectorSize, tag)) << "sector " << lba;
    }
    EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  }

  void ExpectWriteOutOfBlocksChangesNothing(PfsKind kind);

  hw::Disk* disk_;
  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<BlockCache> cache_;
  mk::Task* task_;
  std::map<uint64_t, uint8_t> model_;
};

TEST_F(PfsTest, BlockCacheHitsAndWritebacks) {
  RunInThread([&](mk::Env& env) {
    uint8_t buf[512] = {1, 2, 3};
    ASSERT_EQ(cache_->WriteSector(env, 7, buf), base::Status::kOk);
    uint8_t out[512];
    ASSERT_EQ(cache_->ReadSector(env, 7, out), base::Status::kOk);
    EXPECT_EQ(out[2], 3);
    EXPECT_GE(cache_->hits(), 1u);
    // Dirty data is not on the platter until flush.
    uint8_t platter[512];
    disk_->ReadSectors(7, 1, platter);
    EXPECT_NE(platter[2], 3);
    ASSERT_EQ(cache_->Flush(env), base::Status::kOk);
    disk_->ReadSectors(7, 1, platter);
    EXPECT_EQ(platter[2], 3);
  });
}

TEST_F(PfsTest, BlockCacheSoakBoundsKernelHeap) {
  // A small cache pushed through many times its capacity of distinct
  // sectors: every miss past capacity evicts, and evicted buffers must be
  // recycled — the kernel heap is a bump allocator, so without the free
  // list this soak walks off the end of the heap.
  constexpr uint32_t kCapacity = 32;
  constexpr uint64_t kDistinct = 6 * kCapacity;  // >= 4x capacity
  BlockCache small(kernel_, store_.get(), kCapacity);
  RunInThread([&](mk::Env& env) {
    const uint64_t heap0 = kernel_.heap().bytes_allocated();
    uint8_t buf[BlockCache::kSectorSize] = {};
    for (uint64_t lba = 0; lba < kDistinct; ++lba) {
      buf[0] = static_cast<uint8_t>(lba);
      ASSERT_EQ(small.WriteSector(env, lba, buf), base::Status::kOk);
    }
    const uint64_t heap_growth = kernel_.heap().bytes_allocated() - heap0;
    // Only the resident set may hold heap memory; evictions recycle.
    EXPECT_LE(heap_growth, uint64_t{kCapacity} * BlockCache::kSectorSize);
    EXPECT_EQ(small.misses(), kDistinct);
    EXPECT_GE(small.writebacks(), kDistinct - kCapacity);
    // Evicted dirty sectors were written back in LRU order and are intact.
    uint8_t platter[BlockCache::kSectorSize];
    disk_->ReadSectors(0, 1, platter);
    EXPECT_EQ(platter[0], 0);
    disk_->ReadSectors(kCapacity + 1, 1, platter);
    EXPECT_EQ(platter[0], static_cast<uint8_t>(kCapacity + 1));
    // Sectors still resident are NOT yet on the platter (write-back, not
    // write-through): the most recently written sector only hits the disk
    // on flush.
    disk_->ReadSectors(kDistinct - 1, 1, platter);
    EXPECT_NE(platter[0], static_cast<uint8_t>(kDistinct - 1));
    ASSERT_EQ(small.Flush(env), base::Status::kOk);
    disk_->ReadSectors(kDistinct - 1, 1, platter);
    EXPECT_EQ(platter[0], static_cast<uint8_t>(kDistinct - 1));
    // Re-reading an evicted sector round-trips through the writeback.
    ASSERT_EQ(small.ReadSector(env, 3, buf), base::Status::kOk);
    EXPECT_EQ(buf[0], 3);
    // Each miss at capacity recycles the just-evicted buffer immediately,
    // so the free list never grows beyond the eviction in flight.
    EXPECT_LE(small.free_list_size(), 1u);
  });
}

TEST_F(PfsTest, BlockCacheHitChargesDataOnce) {
  // Regression for the double charge: a hit used to pay a 64-byte touch in
  // GetSector plus the full sector in ReadSector. Now the only data traffic
  // on a hit is the caller's single full-sector access.
  RunInThread([&](mk::Env& env) {
    uint8_t buf[BlockCache::kSectorSize] = {9};
    ASSERT_EQ(cache_->WriteSector(env, 11, buf), base::Status::kOk);
    ASSERT_EQ(cache_->ReadSector(env, 11, buf), base::Status::kOk);  // warm
    const uint64_t accesses0 = kernel_.cpu().counters().data_accesses;
    ASSERT_EQ(cache_->ReadSector(env, 11, buf), base::Status::kOk);
    const uint64_t per_hit = kernel_.cpu().counters().data_accesses - accesses0;
    // data_accesses counts AccessData calls: exactly the caller's one
    // full-sector read. The old code added a second, 64-byte touch in
    // GetSector over the same address range.
    EXPECT_EQ(per_hit, 1u);
  });
}

TEST_F(PfsTest, BlockCacheBytesPartialWriteOnAMissLoadsTheSector) {
  // A partial write to a sector that is not cached loads it first, so the
  // bytes around the range survive; a whole-sector write reads nothing.
  CountingStore store(disk_, 10'000);
  SeedPlatter();
  BlockCache cache(kernel_, &store, 8);
  const uint8_t patch[4] = {0xa1, 0xa2, 0xa3, 0xa4};
  const std::vector<uint8_t> whole(BlockCache::kSectorSize, 0xb5);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(cache.WriteBytes(env, 3, 100, sizeof(patch), patch), base::Status::kOk);
    EXPECT_EQ(store.reads, 1) << "a partial write on a miss must load the sector";
    ASSERT_EQ(cache.WriteBytes(env, 5, 0, BlockCache::kSectorSize, whole.data()),
              base::Status::kOk);
    EXPECT_EQ(store.reads, 1) << "a whole-sector write read the store";
    uint8_t back[6] = {};
    ASSERT_EQ(cache.ReadBytes(env, 3, 99, sizeof(back), back), base::Status::kOk);
    EXPECT_EQ(back[0], 0x13);
    EXPECT_EQ(std::memcmp(back + 1, patch, sizeof(patch)), 0);
    EXPECT_EQ(back[5], 0x13);
    EXPECT_EQ(store.reads, 1);
    ASSERT_EQ(cache.Flush(env), base::Status::kOk);
  });
  std::vector<uint8_t> expect(BlockCache::kSectorSize, 0x13);
  std::copy(std::begin(patch), std::end(patch), expect.begin() + 100);
  std::vector<uint8_t> platter(BlockCache::kSectorSize);
  disk_->ReadSectors(3, 1, platter.data());
  EXPECT_EQ(platter, expect);
  disk_->ReadSectors(5, 1, platter.data());
  EXPECT_EQ(platter, whole);
}

TEST_F(PfsTest, BlockCacheBytesChargeOnlyTheLinesTheySpan) {
  // Each ranged access is one lookup and one D-cache access of exactly its
  // bytes, so it walks only the lines the range spans.
  hw::PhysAddr seen_addr = 0;
  uint32_t seen_size = 0;
  kernel_.cpu().set_access_observer([&](hw::PhysAddr addr, uint32_t size, bool) {
    seen_addr = addr;
    seen_size = size;
  });
  RunInThread([&](mk::Env& env) {
    uint8_t buf[BlockCache::kSectorSize] = {};
    ASSERT_EQ(cache_->WriteSector(env, 11, buf), base::Status::kOk);
    const hw::PhysAddr base = seen_addr;
    const uint32_t line = kernel_.cpu().config().dcache.line_bytes;
    struct Range {
      uint32_t offset;
      uint32_t len;
    };
    for (const Range r : {Range{0, 512}, Range{100, 4}, Range{0, 1}, Range{511, 1},
                          Range{256, 256}, Range{line - 2, 4}, Range{3 * line - 1, 2 * line}}) {
      for (const bool write : {false, true}) {
        SCOPED_TRACE(testing::Message() << "offset " << r.offset << " len " << r.len
                                        << (write ? " write" : " read"));
        const uint64_t accesses = kernel_.cpu().dcache_stats().accesses;
        const uint64_t lookups = Lookups(*cache_, [&] {
          ASSERT_EQ(write ? cache_->WriteBytes(env, 11, r.offset, r.len, buf)
                          : cache_->ReadBytes(env, 11, r.offset, r.len, buf),
                    base::Status::kOk);
        });
        EXPECT_EQ(lookups, 1u);
        EXPECT_EQ(seen_addr, base + r.offset);
        EXPECT_EQ(seen_size, r.len);
        const uint64_t lines = (base + r.offset + r.len - 1) / line - (base + r.offset) / line + 1;
        EXPECT_EQ(kernel_.cpu().dcache_stats().accesses - accesses, lines);
      }
    }
  });
  kernel_.cpu().set_access_observer(nullptr);
}

TEST_F(PfsTest, TwoThreadsMissOnOneSector) {
  // Both threads miss on sector 7 and block in the store; the second to
  // resume finds the first one's copy (was a host abort, `inserted`).
  SeedPlatter();
  BlockCache cache(kernel_, store_.get(), 4);
  RunBothThenFlush(
      cache,
      [&](mk::Env& env) {
        ExpectRead(env, cache, 7);
        Write(env, cache, 3, 0xa3);
      },
      [&](mk::Env& env) {
        ExpectRead(env, cache, 7);
        Write(env, cache, 4, 0xb4);
      });
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u) << "both reads of sector 7 must have missed";
}

TEST_F(PfsTest, TwoThreadsEvictOneDirtyVictim) {
  // Thread A's miss on sector 2 writes back dirty sectors 0 and 1; while it
  // is blocked, thread B's misses meet the same victim and the same run
  // (was a SIGSEGV through the erased victim).
  SeedPlatter();
  BlockCache cache(kernel_, store_.get(), 2);
  RunBothThenFlush(
      cache,
      [&](mk::Env& env) {
        Write(env, cache, 0, 0xa0);
        Write(env, cache, 1, 0xa1);
        ExpectRead(env, cache, 2);
      },
      [&](mk::Env& env) {
        for (uint64_t lba : {5, 1, 6, 8, 9, 1}) {
          ExpectRead(env, cache, lba);
        }
      });
  EXPECT_GE(cache.writebacks(), 2u);
}

TEST_F(PfsTest, FailedWriteBackLeavesTheRunDirty) {
  // A store whose writes fail while `fail` is set.
  struct FlakyStore : mks::BackdoorBlockStore {
    using BackdoorBlockStore::BackdoorBlockStore;
    base::Status Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) override {
      return fail ? base::Status::kIoError : BackdoorBlockStore::Write(env, lba, count, src);
    }
    bool fail = false;
  };
  FlakyStore store(disk_, 10'000);
  SeedPlatter();
  BlockCache cache(kernel_, &store, 2);
  RunInThread([&](mk::Env& env) {
    Write(env, cache, 0, 0xa0);
    Write(env, cache, 1, 0xa1);
    store.fail = true;
    std::vector<uint8_t> out(BlockCache::kSectorSize);
    EXPECT_EQ(cache.ReadSector(env, 2, out.data()), base::Status::kIoError);
    store.fail = false;
    ExpectRead(env, cache, 0);
    ExpectRead(env, cache, 1);
    ASSERT_EQ(cache.Flush(env), base::Status::kOk);
  });
  std::vector<uint8_t> platter(2 * BlockCache::kSectorSize);
  disk_->ReadSectors(0, 2, platter.data());
  EXPECT_EQ(platter[0], 0xa0) << "the failed run was not dirty again";
  EXPECT_EQ(platter[BlockCache::kSectorSize], 0xa1);
}

TEST_F(PfsTest, MissWithTheKernelHeapFullIsResourceShortage) {
  // A miss with no recycled buffer takes a fresh one from a kernel heap that
  // never frees. A full heap refuses the miss (was a host abort, "kernel
  // heap exhausted") before it reads the store or caches anything, and the
  // sectors already cached keep working.
  CountingStore store(disk_, 10'000);
  SeedPlatter();
  BlockCache cache(kernel_, &store, 8);
  RunInThread([&](mk::Env& env) {
    ExpectRead(env, cache, 1);
    Write(env, cache, 2, 0xa2);
    mk::FillKernelHeap(kernel_);
    const int reads = store.reads;
    std::vector<uint8_t> out(BlockCache::kSectorSize, 0xee);
    EXPECT_EQ(cache.ReadSector(env, 3, out.data()), base::Status::kResourceShortage);
    EXPECT_EQ(out, std::vector<uint8_t>(BlockCache::kSectorSize, 0xee));
    const std::vector<uint8_t> bytes(BlockCache::kSectorSize, 0xa4);
    EXPECT_EQ(cache.WriteSector(env, 4, bytes.data()), base::Status::kResourceShortage);
    EXPECT_EQ(store.reads, reads) << "a refused miss read the store";
    ExpectRead(env, cache, 1);
    ExpectRead(env, cache, 2);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  });
}

TEST_F(PfsTest, WriteBackRunStopsAtTheRequestLimit) {
  // 200 contiguous dirty sectors fill a 200-sector cache; the next miss's
  // victim (sector 0) takes its dirty neighbours up to one request's limit.
  BlockCache cache(kernel_, store_.get(), 200);
  RunInThread([&](mk::Env& env) {
    uint8_t buf[BlockCache::kSectorSize];
    for (uint64_t lba = 0; lba < 200; ++lba) {
      std::memset(buf, static_cast<int>(lba + 1), sizeof(buf));
      ASSERT_EQ(cache.WriteSector(env, lba, buf), base::Status::kOk);
    }
    ASSERT_EQ(cache.ReadSector(env, 1000, buf), base::Status::kOk);
    EXPECT_EQ(cache.writebacks(), BlockCache::kMaxRunSectors);
    uint8_t platter[BlockCache::kSectorSize];
    disk_->ReadSectors(BlockCache::kMaxRunSectors - 1, 1, platter);
    EXPECT_EQ(platter[0], BlockCache::kMaxRunSectors);
    disk_->ReadSectors(BlockCache::kMaxRunSectors, 1, platter);
    EXPECT_EQ(platter[0], 0) << "the run went past one request";
  });
}

TEST_F(PfsTest, FatFormatCreateReadWrite) {
  InodeFs fat(kernel_, cache_.get(), 8192, PfsKind::kFat);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(fat.Format(env), base::Status::kOk);
    auto file = fat.Create(env, InodeFs::kRootInode, "HELLO.TXT", false);
    ASSERT_TRUE(file.ok());
    const char msg[] = "fat file system says hi";
    auto wrote = fat.Write(env, *file, 0, msg, sizeof(msg));
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(*wrote, sizeof(msg));
    char out[64] = {};
    auto got = fat.Read(env, *file, 0, out, sizeof(out));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, sizeof(msg));
    EXPECT_STREQ(out, msg);
    auto attr = fat.GetAttr(env, *file);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, sizeof(msg));
  });
}

TEST_F(PfsTest, FatRejectsLongNames) {
  InodeFs fat(kernel_, cache_.get(), 8192, PfsKind::kFat);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(fat.Format(env), base::Status::kOk);
    // The paper's FAT incompatibility: no way to store a long name.
    EXPECT_EQ(fat.Create(env, InodeFs::kRootInode, "longfilename.txt", false).status(),
              base::Status::kNotSupported);
    EXPECT_EQ(fat.Create(env, InodeFs::kRootInode, "file.longext", false).status(),
              base::Status::kNotSupported);
    // 8.3 names are uppercased, not case-preserved.
    ASSERT_TRUE(fat.Create(env, InodeFs::kRootInode, "mixed.txt", false).ok());
    auto entries = fat.ReadDir(env, InodeFs::kRootInode);
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "MIXED.TXT");
    // Lookup is case-insensitive.
    EXPECT_TRUE(fat.Lookup(env, InodeFs::kRootInode, "MiXeD.TxT").ok());
  });
}

TEST_F(PfsTest, FatSubdirectoriesAndRemove) {
  InodeFs fat(kernel_, cache_.get(), 8192, PfsKind::kFat);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(fat.Format(env), base::Status::kOk);
    auto dir = fat.Create(env, InodeFs::kRootInode, "SUBDIR", true);
    ASSERT_TRUE(dir.ok());
    auto file = fat.Create(env, *dir, "A.DAT", false);
    ASSERT_TRUE(file.ok());
    // Non-empty directory cannot be removed.
    EXPECT_EQ(fat.Remove(env, InodeFs::kRootInode, "SUBDIR"), base::Status::kBusy);
    ASSERT_EQ(fat.Remove(env, *dir, "A.DAT"), base::Status::kOk);
    EXPECT_EQ(fat.Remove(env, InodeFs::kRootInode, "SUBDIR"), base::Status::kOk);
    EXPECT_EQ(fat.Lookup(env, InodeFs::kRootInode, "SUBDIR").status(), base::Status::kNotFound);
  });
}

TEST_F(PfsTest, FatPersistsAcrossRemount) {
  {
    InodeFs fat(kernel_, cache_.get(), 8192, PfsKind::kFat);
    RunInThread([&](mk::Env& env) {
      ASSERT_EQ(fat.Format(env), base::Status::kOk);
      auto file = fat.Create(env, InodeFs::kRootInode, "KEEP.ME", false);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(fat.Write(env, *file, 0, "persist", 8).ok());
      ASSERT_EQ(fat.Sync(env), base::Status::kOk);
    });
  }
  InodeFs fat2(kernel_, cache_.get(), 8192, PfsKind::kFat);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(fat2.Mount(env), base::Status::kOk);
    auto file = fat2.Lookup(env, InodeFs::kRootInode, "KEEP.ME");
    ASSERT_TRUE(file.ok());
    char out[16] = {};
    ASSERT_TRUE(fat2.Read(env, *file, 0, out, sizeof(out)).ok());
    EXPECT_STREQ(out, "persist");
  });
}

TEST_F(PfsTest, HpfsLongNamesCasePreservedCaseInsensitive) {
  InodeFs hpfs(kernel_, cache_.get(), 16384, PfsKind::kHpfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(hpfs.Format(env), base::Status::kOk);
    auto file = hpfs.Create(env, InodeFs::kRootInode, "My Long Document Name.text", false);
    ASSERT_TRUE(file.ok());
    // Case-insensitive lookup finds it...
    EXPECT_TRUE(hpfs.Lookup(env, InodeFs::kRootInode, "my long document name.TEXT").ok());
    // ...and the stored case is preserved.
    auto entries = hpfs.ReadDir(env, InodeFs::kRootInode);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ((*entries)[0].name, "My Long Document Name.text");
  });
}

TEST_F(PfsTest, HpfsExtendedAttributes) {
  InodeFs hpfs(kernel_, cache_.get(), 16384, PfsKind::kHpfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(hpfs.Format(env), base::Status::kOk);
    auto file = hpfs.Create(env, InodeFs::kRootInode, "doc.txt", false);
    ASSERT_TRUE(file.ok());
    ASSERT_EQ(hpfs.SetEa(env, *file, ".TYPE", "Plain Text"), base::Status::kOk);
    ASSERT_EQ(hpfs.SetEa(env, *file, ".ICON", "doc"), base::Status::kOk);
    auto type = hpfs.GetEa(env, *file, ".TYPE");
    ASSERT_TRUE(type.ok());
    EXPECT_EQ(*type, "Plain Text");
    // Overwrite in place.
    ASSERT_EQ(hpfs.SetEa(env, *file, ".TYPE", "Rich Text"), base::Status::kOk);
    EXPECT_EQ(*hpfs.GetEa(env, *file, ".TYPE"), "Rich Text");
    // Slots exhausted.
    EXPECT_EQ(hpfs.SetEa(env, *file, ".THIRD", "x"), base::Status::kNoSpace);
  });
}

TEST_F(PfsTest, JfsCaseSensitiveNames) {
  InodeFs jfs(kernel_, cache_.get(), 16384, PfsKind::kJfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(jfs.Format(env), base::Status::kOk);
    ASSERT_TRUE(jfs.Create(env, InodeFs::kRootInode, "Makefile", false).ok());
    ASSERT_TRUE(jfs.Create(env, InodeFs::kRootInode, "makefile", false).ok());
    EXPECT_TRUE(jfs.Lookup(env, InodeFs::kRootInode, "Makefile").ok());
    EXPECT_TRUE(jfs.Lookup(env, InodeFs::kRootInode, "makefile").ok());
    EXPECT_EQ(jfs.Lookup(env, InodeFs::kRootInode, "MAKEFILE").status(),
              base::Status::kNotFound);
  });
}

TEST_F(PfsTest, JfsLargeFileThroughIndirectBlocks) {
  InodeFs jfs(kernel_, cache_.get(), 32768, PfsKind::kJfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(jfs.Format(env), base::Status::kOk);
    auto file = jfs.Create(env, InodeFs::kRootInode, "big.bin", false);
    ASSERT_TRUE(file.ok());
    // > 12 direct blocks (12 * 512 = 6 KB): forces the indirect path.
    std::vector<uint8_t> data(20 * 1024);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i % 251);
    }
    auto wrote = jfs.Write(env, *file, 0, data.data(), static_cast<uint32_t>(data.size()));
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(*wrote, data.size());
    std::vector<uint8_t> back(data.size());
    auto got = jfs.Read(env, *file, 0, back.data(), static_cast<uint32_t>(back.size()));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(back, data);
    // Offset read in the indirect zone.
    uint8_t b = 0;
    ASSERT_TRUE(jfs.Read(env, *file, 10'000, &b, 1).ok());
    EXPECT_EQ(b, static_cast<uint8_t>(10'000 % 251));
  });
}

TEST_F(PfsTest, JfsJournalReplayAfterCrash) {
  InodeFs jfs(kernel_, cache_.get(), 32768, PfsKind::kJfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(jfs.Format(env), base::Status::kOk);
    ASSERT_TRUE(jfs.Create(env, InodeFs::kRootInode, "survivor", false).ok());
    ASSERT_EQ(jfs.Sync(env), base::Status::kOk);
    // Crash in the middle of the next create: the journal is written but the
    // main metadata area is not.
    jfs.CrashBeforeApply();
    ASSERT_TRUE(jfs.Create(env, InodeFs::kRootInode, "committed-by-log", false).ok());
    ASSERT_EQ(jfs.Sync(env), base::Status::kOk);
  });
  // Remount: replay must make the logged create visible.
  InodeFs recovered(kernel_, cache_.get(), 32768, PfsKind::kJfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(recovered.Mount(env), base::Status::kOk);
    EXPECT_EQ(recovered.journal_replays(), 1u);
    EXPECT_TRUE(recovered.Lookup(env, InodeFs::kRootInode, "survivor").ok());
    EXPECT_TRUE(recovered.Lookup(env, InodeFs::kRootInode, "committed-by-log").ok());
  });
}

TEST_F(PfsTest, JfsRenamePreservesInode) {
  InodeFs jfs(kernel_, cache_.get(), 16384, PfsKind::kJfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(jfs.Format(env), base::Status::kOk);
    auto dir = jfs.Create(env, InodeFs::kRootInode, "dir", true);
    ASSERT_TRUE(dir.ok());
    auto file = jfs.Create(env, InodeFs::kRootInode, "old-name", false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(jfs.Write(env, *file, 0, "payload", 8).ok());
    ASSERT_EQ(jfs.Rename(env, InodeFs::kRootInode, "old-name", *dir, "new-name"),
              base::Status::kOk);
    EXPECT_EQ(jfs.Lookup(env, InodeFs::kRootInode, "old-name").status(),
              base::Status::kNotFound);
    auto moved = jfs.Lookup(env, *dir, "new-name");
    ASSERT_TRUE(moved.ok());
    EXPECT_EQ(*moved, *file) << "rename must not change the inode";
    char out[8] = {};
    ASSERT_TRUE(jfs.Read(env, *moved, 0, out, 8).ok());
    EXPECT_STREQ(out, "payload");
  });
}

// A JFS op that fails inside its transaction ends it: the next op runs. The
// 1,024-inode table holds 1,022 files beside the root (inode 0 is never
// used), so the 1,023rd create answers kNoSpace and so does the next one.
TEST_F(PfsTest, JfsFailedCreateEndsItsTransaction) {
  constexpr uint32_t kFiles = 1022;
  InodeFs jfs(kernel_, cache_.get(), 32768, PfsKind::kJfs);
  std::map<std::string, bool> created;
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(jfs.Format(env), base::Status::kOk);
    for (uint32_t i = 0; i < kFiles; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      ASSERT_TRUE(jfs.Create(env, InodeFs::kRootInode, name, false).ok()) << name;
      created[name] = false;
    }
    EXPECT_EQ(jfs.Create(env, InodeFs::kRootInode, "full", false).status(),
              base::Status::kNoSpace);
    EXPECT_EQ(jfs.Create(env, InodeFs::kRootInode, "still-full", true).status(),
              base::Status::kNoSpace);
    ASSERT_EQ(jfs.Remove(env, InodeFs::kRootInode, "f7"), base::Status::kOk);
    created.erase("f7");
    ASSERT_TRUE(jfs.Create(env, InodeFs::kRootInode, "again", false).ok());
    created["again"] = false;
    ASSERT_EQ(jfs.Sync(env), base::Status::kOk);
  });
  // A remount lists exactly the names whose create answered kOk.
  InodeFs remounted(kernel_, cache_.get(), 32768, PfsKind::kJfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(remounted.Mount(env), base::Status::kOk);
    auto entries = remounted.ReadDir(env, InodeFs::kRootInode);
    ASSERT_TRUE(entries.ok());
    std::map<std::string, bool> listed;
    for (const DirEntry& e : *entries) {
      listed[e.name] = e.directory;
    }
    EXPECT_EQ(listed, created);
  });
}

// A write that runs out of blocks changes nothing, on every flavour: the
// file keeps its size, the blocks it took are free again, and a remount
// counts the same. 1,024 sectors leave HPFS and FAT 510 data blocks and JFS,
// whose journal takes 256 sectors, 254; 64 KB files fill each volume until
// the next 64 KB cannot fit.
void PfsTest::ExpectWriteOutOfBlocksChangesNothing(PfsKind kind) {
  InodeFs fs(kernel_, cache_.get(), 1024, kind);
  std::map<NodeId, uint64_t> sizes;  // a 1 KB file and an empty one
  uint64_t free_before = 0;
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(fs.Format(env), base::Status::kOk);
    const std::vector<uint8_t> data(64 * 1024, 0x5a);  // 128 blocks and an indirect one
    for (int i = 0; fs.free_blocks() > 130; ++i) {
      auto fill = fs.Create(env, InodeFs::kRootInode, "FILL" + std::to_string(i), false);
      ASSERT_TRUE(fill.ok());
      ASSERT_TRUE(fs.Write(env, *fill, 0, data.data(), static_cast<uint32_t>(data.size())).ok());
    }
    auto file = fs.Create(env, InodeFs::kRootInode, "FILE.DAT", false);
    auto empty = fs.Create(env, InodeFs::kRootInode, "EMPTY.DAT", false);
    ASSERT_TRUE(file.ok() && empty.ok());
    ASSERT_TRUE(fs.Write(env, *file, 0, data.data(), 1024).ok());
    sizes = {{*file, 1024}, {*empty, 0}};
    free_before = fs.free_blocks();
    for (const auto& [node, size] : sizes) {
      EXPECT_EQ(fs.Write(env, node, size, data.data(), static_cast<uint32_t>(data.size()))
                    .status(),
                base::Status::kNoSpace);
      auto attr = fs.GetAttr(env, node);
      ASSERT_TRUE(attr.ok());
      EXPECT_EQ(attr->size, size);
      EXPECT_EQ(fs.free_blocks(), free_before);
    }
    ASSERT_EQ(fs.Sync(env), base::Status::kOk);
  });
  InodeFs remounted(kernel_, cache_.get(), 1024, kind);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(remounted.Mount(env), base::Status::kOk);
    for (const auto& [node, size] : sizes) {
      auto attr = remounted.GetAttr(env, node);
      ASSERT_TRUE(attr.ok());
      EXPECT_EQ(attr->size, size);
    }
  });
  EXPECT_EQ(remounted.free_blocks(), free_before);
}

// The FAT flavour allocates blocks, not clusters: a failed write gives them back.
TEST_F(PfsTest, FatWriteOutOfClustersGivesThemBack) {
  ExpectWriteOutOfBlocksChangesNothing(PfsKind::kFat);
}

TEST_F(PfsTest, HpfsWriteOutOfBlocksChangesNothing) {
  ExpectWriteOutOfBlocksChangesNothing(PfsKind::kHpfs);
}

TEST_F(PfsTest, JfsWriteOutOfBlocksChangesNothing) {
  ExpectWriteOutOfBlocksChangesNothing(PfsKind::kJfs);
}

// The lookup counts below hold for HPFS, whose metadata goes to the cache in
// place; JFS stages its metadata in a transaction and logs it at commit.
TEST_F(PfsTest, LookupsListingAndSearchingReadEachDirectorySectorOnce) {
  constexpr uint32_t kEntries = 21;  // two full sectors of 8 entries and part of a third
  constexpr uint64_t kSectors = (kEntries + 7) / 8;
  InodeFs hpfs(kernel_, cache_.get(), 16384, PfsKind::kHpfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(hpfs.Format(env), base::Status::kOk);
    auto dir = hpfs.Create(env, InodeFs::kRootInode, "dir", true);
    ASSERT_TRUE(dir.ok());
    std::map<std::string, bool> oracle;
    for (uint32_t i = 0; i < kEntries; ++i) {
      const std::string name = "entry" + std::to_string(i);
      ASSERT_TRUE(hpfs.Create(env, *dir, name, i % 3 == 0).ok());
      oracle[name] = i % 3 == 0;
    }
    // The directory's inode, then each sector once: no child inode.
    std::map<std::string, bool> listed;
    const uint64_t listing = Lookups(*cache_, [&] {
      auto entries = hpfs.ReadDir(env, *dir);
      ASSERT_TRUE(entries.ok());
      for (const DirEntry& e : *entries) {
        listed[e.name] = e.directory;
      }
    });
    EXPECT_EQ(listing, kSectors + 1);
    EXPECT_EQ(listed, oracle);
    const uint64_t last = Lookups(*cache_, [&] {
      EXPECT_TRUE(hpfs.Lookup(env, *dir, "entry" + std::to_string(kEntries - 1)).ok());
    });
    EXPECT_EQ(last, kSectors + 1);
    const uint64_t absent = Lookups(*cache_, [&] {
      EXPECT_EQ(hpfs.Lookup(env, *dir, "absent").status(), base::Status::kNotFound);
    });
    EXPECT_EQ(absent, kSectors + 1);
  });
}

TEST_F(PfsTest, LookupsRemovingA48BlockFileMakeOneBitmapReadModifyWrite) {
  InodeFs hpfs(kernel_, cache_.get(), 16384, PfsKind::kHpfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(hpfs.Format(env), base::Status::kOk);
    const uint64_t free0 = hpfs.free_blocks();
    auto small = hpfs.Create(env, InodeFs::kRootInode, "small", false);
    auto big = hpfs.Create(env, InodeFs::kRootInode, "big", false);
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(hpfs.Write(env, *small, 0, "x", 1).ok());
    const std::vector<uint8_t> data(48 * InodeFs::kSectorSize, 0x5c);
    ASSERT_TRUE(hpfs.Write(env, *big, 0, data.data(), static_cast<uint32_t>(data.size())).ok());
    // Both entries sit in the root's first sector. Removing one reads the
    // root's inode and that sector, reads the file's inode, reads and writes
    // the bitmap bytes once, writes the freed inode, then reads the root's
    // inode again and writes the cleared entry: 8 lookups.
    const uint64_t small_lookups = Lookups(*cache_, [&] {
      ASSERT_EQ(hpfs.Remove(env, InodeFs::kRootInode, "small"), base::Status::kOk);
    });
    EXPECT_EQ(small_lookups, 8u);
    // The 48-block file adds only its indirect block's read: its 49 bits
    // (48 data blocks and the indirect one) take the same one bitmap
    // read-modify-write as the small file's single bit.
    const uint64_t big_lookups = Lookups(*cache_, [&] {
      ASSERT_EQ(hpfs.Remove(env, InodeFs::kRootInode, "big"), base::Status::kOk);
    });
    EXPECT_EQ(big_lookups, small_lookups + 1);
    EXPECT_EQ(hpfs.free_blocks() + 1, free0) << "the root keeps its one block";
    // A new entry takes the first free slot: the root does not grow.
    ASSERT_TRUE(hpfs.Create(env, InodeFs::kRootInode, "again", false).ok());
    auto root = hpfs.GetAttr(env, InodeFs::kRootInode);
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->size, 2 * InodeFs::kDirentSize);
    ASSERT_EQ(hpfs.Sync(env), base::Status::kOk);
  });
  // A remount counts the free blocks from the bitmap itself.
  InodeFs remounted(kernel_, cache_.get(), 16384, PfsKind::kHpfs);
  RunInThread([&](mk::Env& env) { ASSERT_EQ(remounted.Mount(env), base::Status::kOk); });
  EXPECT_EQ(remounted.free_blocks(), hpfs.free_blocks());
}

TEST_F(PfsTest, InodeFsDirentTypeSurvivesRenameAndRemount) {
  for (const PfsKind kind : {PfsKind::kHpfs, PfsKind::kJfs}) {
    SCOPED_TRACE(kind == PfsKind::kJfs ? "jfs" : "hpfs");
    auto make = [&] { return std::make_unique<InodeFs>(kernel_, cache_.get(), 16384, kind); };
    std::unique_ptr<InodeFs> fs = make();
    RunInThread([&](mk::Env& env) {
      ASSERT_EQ(fs->Format(env), base::Status::kOk);
      auto other = fs->Create(env, InodeFs::kRootInode, "other", true);
      ASSERT_TRUE(other.ok());
      ASSERT_TRUE(fs->Create(env, InodeFs::kRootInode, "sub", true).ok());
      ASSERT_TRUE(fs->Create(env, InodeFs::kRootInode, "file", false).ok());
      ASSERT_EQ(fs->Rename(env, InodeFs::kRootInode, "sub", InodeFs::kRootInode, "renamed"),
                base::Status::kOk);
      ASSERT_EQ(fs->Rename(env, InodeFs::kRootInode, "file", *other, "moved"),
                base::Status::kOk);
      ASSERT_EQ(fs->Sync(env), base::Status::kOk);
    });
    fs = make();
    RunInThread([&](mk::Env& env) {
      ASSERT_EQ(fs->Mount(env), base::Status::kOk);
      auto listing = [&](NodeId dir) {
        std::map<std::string, bool> types;
        auto entries = fs->ReadDir(env, dir);
        EXPECT_TRUE(entries.ok());
        if (entries.ok()) {
          for (const DirEntry& e : *entries) {
            types[e.name] = e.directory;
          }
        }
        return types;
      };
      EXPECT_EQ(listing(InodeFs::kRootInode),
                (std::map<std::string, bool>{{"other", true}, {"renamed", true}}));
      auto other = fs->Lookup(env, InodeFs::kRootInode, "other");
      ASSERT_TRUE(other.ok());
      EXPECT_EQ(listing(*other), (std::map<std::string, bool>{{"moved", false}}));
    });
  }
}

TEST_F(PfsTest, InodeFsBlockAccountingOnRemove) {
  InodeFs hpfs(kernel_, cache_.get(), 16384, PfsKind::kHpfs);
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(hpfs.Format(env), base::Status::kOk);
    const uint64_t free0 = hpfs.free_blocks();
    auto file = hpfs.Create(env, InodeFs::kRootInode, "temp", false);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data(8 * 1024, 1);
    ASSERT_TRUE(hpfs.Write(env, *file, 0, data.data(), static_cast<uint32_t>(data.size())).ok());
    EXPECT_LT(hpfs.free_blocks(), free0);
    ASSERT_EQ(hpfs.Remove(env, InodeFs::kRootInode, "temp"), base::Status::kOk);
    // The root directory keeps one block for its entries; everything the
    // file held must come back.
    EXPECT_GE(hpfs.free_blocks() + 1, free0);
  });
}

}  // namespace
}  // namespace svc
