#include "src/hw/cache.h"

#include <gtest/gtest.h>

#include "src/hw/tlb.h"

namespace hw {
namespace {

CacheConfig SmallCache() {
  return CacheConfig{.size_bytes = 1024, .line_bytes = 32, .ways = 2};
}

TEST(CacheTest, FirstAccessMissesThenHits) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.Access(0x100, false).hit);
  EXPECT_TRUE(cache.Access(0x100, false).hit);
  EXPECT_TRUE(cache.Access(0x11f, false).hit);   // same 32-byte line
  EXPECT_FALSE(cache.Access(0x120, false).hit);  // next line
}

TEST(CacheTest, StatsCountAccessesAndMisses) {
  Cache cache(SmallCache());
  cache.Access(0x0, false);
  cache.Access(0x0, false);
  cache.Access(0x40, false);
  EXPECT_EQ(cache.stats().accesses, 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, ConflictEvictionLru) {
  Cache cache(SmallCache());  // 16 sets, 2 ways
  // Three lines mapping to the same set (stride = sets * line = 512).
  cache.Access(0x000, false);
  cache.Access(0x200, false);
  EXPECT_TRUE(cache.Access(0x000, false).hit);
  cache.Access(0x400, false);  // evicts 0x200 (LRU)
  EXPECT_TRUE(cache.Access(0x000, false).hit);
  EXPECT_FALSE(cache.Access(0x200, false).hit);
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache cache(SmallCache());
  cache.Access(0x000, true);  // dirty
  cache.Access(0x200, false);
  auto r = cache.Access(0x400, false);  // evicts dirty 0x000
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, FlushInvalidatesAndWritesBackDirty) {
  Cache cache(SmallCache());
  cache.Access(0x000, true);
  cache.Access(0x040, false);
  cache.Flush();
  EXPECT_EQ(cache.stats().writebacks, 1u);
  EXPECT_FALSE(cache.Access(0x000, false).hit);
  EXPECT_FALSE(cache.Access(0x040, false).hit);
}

TEST(CacheTest, CapacityHoldsWorkingSet) {
  Cache cache(SmallCache());  // 1 KB: 32 lines
  for (uint64_t a = 0; a < 1024; a += 32) {
    cache.Access(a, false);
  }
  // Everything fits; second pass hits entirely.
  for (uint64_t a = 0; a < 1024; a += 32) {
    EXPECT_TRUE(cache.Access(a, false).hit) << a;
  }
}

TEST(CacheTest, OverCapacityWorkingSetThrashes) {
  Cache cache(SmallCache());
  // 2x capacity round robin: with LRU this misses every time.
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t a = 0; a < 2048; a += 32) {
      cache.Access(a, false);
    }
  }
  EXPECT_EQ(cache.stats().misses, cache.stats().accesses);
}

// A bad geometry dies in the constructor with its reason, instead of a
// division by zero there or a wrong answer on the first access.
TEST(CacheTest, ConstructorRejectsBadGeometry) {
  EXPECT_DEATH(Cache(CacheConfig{.ways = 0}), "cache ways must be non-zero");
  EXPECT_DEATH(Cache(CacheConfig{.size_bytes = 0}), "cache size must be non-zero");
  EXPECT_DEATH(Cache(CacheConfig{.line_bytes = 0}),
               "cache line size must be a non-zero power of two");
  EXPECT_DEATH(Cache(CacheConfig{.size_bytes = 6144, .line_bytes = 48, .ways = 2}),
               "cache line size must be a non-zero power of two");
  EXPECT_DEATH(Cache(CacheConfig{.size_bytes = 64, .line_bytes = 1, .ways = 2}),
               "cache lines must be at least 2 bytes");
}

TEST(TlbTest, ConstructorRejectsBadGeometry) {
  EXPECT_DEATH(Tlb(TlbConfig{.ways = 0}), "TLB ways must be non-zero");
  EXPECT_DEATH(Tlb(TlbConfig{.entries = 0}), "TLB entries must be non-zero");
}

}  // namespace
}  // namespace hw
