// Property test for BlockCache's write-back runs: seeded streams of
// ReadSector / WriteSector / ZeroTail / Flush over a 64-sector range, at
// capacities 1, 2, 4 and 16, against a reference model of the cache (LRU
// order, dirty bits, every sector's bytes) and a store that records every
// call. The oracle checks the bytes (every read returns the model's bytes,
// and after Flush the store equals the model) and the requests: a miss makes
// at most one store call; an eviction write-back is contiguous, at most
// kMaxRunSectors, contains the LRU victim and holds only sectors the model
// has dirty, and it is the whole run of cached dirty sectors around the
// victim; Flush writes each dirty sector alone, in LBA order. A failing
// stream prints its seed; replay with WPOS_PROPS_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <list>
#include <map>
#include <sstream>
#include <vector>

#include "src/base/rng.h"
#include "src/svc/fs/block_cache.h"
#include "tests/mk/kernel_test_fixture.h"
#include "tests/props/seeds.h"

namespace svc {
namespace {

constexpr uint64_t kRange = 64;
constexpr uint32_t kSector = BlockCache::kSectorSize;
using Bytes = std::array<uint8_t, kSector>;

// An in-memory store that keeps one record per call. WriteThenRead is one
// call, as it is one request to the disk driver.
class RecordingStore : public mks::BlockStore {
 public:
  enum class Kind { kRead, kWrite, kWriteThenRead };
  struct Call {
    Kind kind;
    uint64_t wlba = 0;
    uint32_t wcount = 0;
    std::vector<uint8_t> wdata;
    uint64_t rlba = 0;
    uint32_t rcount = 0;
  };

  RecordingStore() : sectors_(kRange * kSector, 0) {}

  base::Status Read(mk::Env&, uint64_t lba, uint32_t count, void* out) override {
    calls_.push_back({.kind = Kind::kRead, .rlba = lba, .rcount = count});
    return DoRead(lba, count, out);
  }
  base::Status Write(mk::Env&, uint64_t lba, uint32_t count, const void* src) override {
    calls_.push_back(
        {.kind = Kind::kWrite, .wlba = lba, .wcount = count, .wdata = Copy(src, count)});
    return DoWrite(lba, count, src);
  }
  base::Status WriteThenRead(mk::Env&, uint64_t wlba, uint32_t wcount, const void* src,
                             uint64_t rlba, void* out) override {
    calls_.push_back({.kind = Kind::kWriteThenRead,
                      .wlba = wlba,
                      .wcount = wcount,
                      .wdata = Copy(src, wcount),
                      .rlba = rlba,
                      .rcount = 1});
    const base::Status st = DoWrite(wlba, wcount, src);
    return st != base::Status::kOk ? st : DoRead(rlba, 1, out);
  }
  uint64_t num_sectors() const override { return kRange; }

  const std::vector<Call>& calls() const { return calls_; }
  Bytes Sector(uint64_t lba) const {
    Bytes b;
    std::memcpy(b.data(), sectors_.data() + lba * kSector, kSector);
    return b;
  }

 private:
  static std::vector<uint8_t> Copy(const void* src, uint32_t count) {
    const auto* p = static_cast<const uint8_t*>(src);
    return std::vector<uint8_t>(p, p + static_cast<size_t>(count) * kSector);
  }
  bool InRange(uint64_t lba, uint32_t count) const {
    return lba <= kRange && count <= kRange - lba;
  }
  base::Status DoRead(uint64_t lba, uint32_t count, void* out) {
    if (!InRange(lba, count)) {
      return base::Status::kInvalidArgument;
    }
    std::memcpy(out, sectors_.data() + lba * kSector, static_cast<size_t>(count) * kSector);
    return base::Status::kOk;
  }
  base::Status DoWrite(uint64_t lba, uint32_t count, const void* src) {
    if (!InRange(lba, count)) {
      return base::Status::kInvalidArgument;
    }
    std::memcpy(sectors_.data() + lba * kSector, src, static_cast<size_t>(count) * kSector);
    return base::Status::kOk;
  }

  std::vector<uint8_t> sectors_;
  std::vector<Call> calls_;
};

// The reference cache: LRU order of the cached sectors, their dirty bits,
// and the current bytes of every sector in the range.
struct Model {
  uint32_t capacity = 0;
  std::list<uint64_t> lru;      // front = most recent
  std::map<uint64_t, bool> dirty;  // cached sector -> dirty
  std::map<uint64_t, Bytes> bytes;

  bool Cached(uint64_t lba) const { return dirty.count(lba) != 0; }
  bool CachedDirty(uint64_t lba) const { return Cached(lba) && dirty.at(lba); }
  void Touch(uint64_t lba) {
    lru.remove(lba);
    lru.push_front(lba);
  }
};

class BlockCacheRunsPropsTest : public mk::KernelTest,
                                public ::testing::WithParamInterface<uint32_t> {
 protected:
  // Checks the calls a miss on `lba` made against the model, and updates
  // the model. `load` is false for a whole-sector write.
  void CheckMiss(Model& m, const std::vector<RecordingStore::Call>& calls, uint64_t lba,
                 bool load, const std::string& where) {
    ASSERT_LE(calls.size(), 1u) << "a miss made more than one store call, " << where;
    uint64_t victim = 0;
    const bool evicts = m.lru.size() >= m.capacity;
    if (evicts) {
      victim = m.lru.back();
    }
    if (evicts && m.dirty.at(victim)) {
      ASSERT_EQ(calls.size(), 1u) << "a dirty victim was not written back, " << where;
      const RecordingStore::Call& c = calls[0];
      ASSERT_EQ(c.kind,
                load ? RecordingStore::Kind::kWriteThenRead : RecordingStore::Kind::kWrite)
          << where;
      ASSERT_GE(c.wcount, 1u) << where;
      ASSERT_LE(c.wcount, BlockCache::kMaxRunSectors) << where;
      ASSERT_TRUE(c.wlba <= victim && victim < c.wlba + c.wcount)
          << "the run [" << c.wlba << ", +" << c.wcount << ") skips victim " << victim << ", "
          << where;
      for (uint64_t s = c.wlba; s < c.wlba + c.wcount; ++s) {
        ASSERT_TRUE(m.CachedDirty(s)) << "the run writes sector " << s
                                      << ", which the model has clean or uncached, " << where;
        ASSERT_EQ(0, std::memcmp(c.wdata.data() + (s - c.wlba) * kSector, m.bytes[s].data(),
                                 kSector))
            << "the run writes stale bytes for sector " << s << ", " << where;
      }
      if (c.wcount < BlockCache::kMaxRunSectors) {
        ASSERT_FALSE(c.wlba > 0 && m.CachedDirty(c.wlba - 1))
            << "the run stops short of dirty sector " << c.wlba - 1 << ", " << where;
        ASSERT_FALSE(m.CachedDirty(c.wlba + c.wcount))
            << "the run stops short of dirty sector " << c.wlba + c.wcount << ", " << where;
      }
      if (load) {
        ASSERT_EQ(c.rlba, lba) << where;
      }
      for (uint64_t s = c.wlba; s < c.wlba + c.wcount; ++s) {
        m.dirty[s] = false;
      }
      if (c.wcount > 1) {
        ++runs_with_neighbours_;
      }
    } else if (load) {
      ASSERT_EQ(calls.size(), 1u) << where;
      ASSERT_EQ(calls[0].kind, RecordingStore::Kind::kRead) << where;
      ASSERT_EQ(calls[0].rlba, lba) << where;
      ASSERT_EQ(calls[0].rcount, 1u) << where;
    } else {
      ASSERT_TRUE(calls.empty()) << "a whole-sector write with a clean victim called the store, "
                                 << where;
    }
    if (evicts) {
      m.lru.pop_back();
      m.dirty.erase(victim);
    }
    m.lru.push_front(lba);
    m.dirty[lba] = false;
  }

  void ModelRead(Model& m, const std::vector<RecordingStore::Call>& calls, uint64_t lba,
                 const std::string& where) {
    if (m.Cached(lba)) {
      ASSERT_TRUE(calls.empty()) << "a hit called the store, " << where;
      m.Touch(lba);
      return;
    }
    CheckMiss(m, calls, lba, /*load=*/true, where);
  }

  void ModelWrite(Model& m, const std::vector<RecordingStore::Call>& calls, uint64_t lba,
                  const Bytes& data, const std::string& where) {
    if (m.Cached(lba)) {
      ASSERT_TRUE(calls.empty()) << "a hit called the store, " << where;
      m.Touch(lba);
    } else {
      CheckMiss(m, calls, lba, /*load=*/false, where);
    }
    m.dirty[lba] = true;
    m.bytes[lba] = data;
  }

  // The calls the store received since `mark`.
  static std::vector<RecordingStore::Call> Since(const RecordingStore& store, size_t mark) {
    return {store.calls().begin() + static_cast<std::ptrdiff_t>(mark), store.calls().end()};
  }

  void RunStream(mk::Env& env, uint64_t seed) {
    const uint32_t capacity = GetParam();
    runs_with_neighbours_ = 0;
    RecordingStore store;
    BlockCache cache(kernel_, &store, capacity);
    Model m;
    m.capacity = capacity;
    for (uint64_t lba = 0; lba < kRange; ++lba) {
      m.bytes[lba].fill(0);
    }
    base::Rng rng(seed * 1000 + capacity);
    std::ostringstream trace;
    for (int step = 0; step < 600; ++step) {
      // Small strides keep neighbours cached, so runs form.
      const uint64_t lba = rng.NextBool(0.7) ? rng.NextBelow(kRange / 4) : rng.NextBelow(kRange);
      const uint64_t r = rng.NextBelow(100);
      const size_t mark = store.calls().size();
      std::ostringstream where_s;
      where_s << "seed=" << seed << " capacity=" << capacity << " step=" << step;
      const std::string where = where_s.str();
      if (r < 40) {
        trace << "read " << lba << "\n";
        Bytes out;
        ASSERT_EQ(cache.ReadSector(env, lba, out.data()), base::Status::kOk) << where;
        ModelRead(m, Since(store, mark), lba, where);
        ASSERT_EQ(out, m.bytes[lba]) << "read of sector " << lba << ", " << where << "\n"
                                     << trace.str();
      } else if (r < 80) {
        Bytes data;
        data.fill(static_cast<uint8_t>(rng.Next()));
        data[0] = static_cast<uint8_t>(step);
        trace << "write " << lba << "\n";
        ASSERT_EQ(cache.WriteSector(env, lba, data.data()), base::Status::kOk) << where;
        ModelWrite(m, Since(store, mark), lba, data, where);
      } else if (r < 95) {
        const uint32_t from = rng.NextBool(0.25) ? 0 : static_cast<uint32_t>(rng.NextBelow(kSector));
        trace << "zerotail " << lba << " from " << from << "\n";
        ASSERT_EQ(cache.ZeroTail(env, lba, from), base::Status::kOk) << where;
        const std::vector<RecordingStore::Call> calls = Since(store, mark);
        Bytes data = m.bytes[lba];
        std::memset(data.data() + from, 0, kSector - from);
        if (from != 0) {
          // ReadSector, then WriteSector of the same, now resident, sector.
          ModelRead(m, calls, lba, where);
          ModelWrite(m, {}, lba, data, where);
        } else {
          ModelWrite(m, calls, lba, data, where);
        }
      } else {
        trace << "flush\n";
        ASSERT_EQ(cache.Flush(env), base::Status::kOk) << where;
        CheckFlush(m, Since(store, mark), where);
      }
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << trace.str();
        return;
      }
    }
    const size_t mark = store.calls().size();
    ASSERT_EQ(cache.Flush(env), base::Status::kOk);
    CheckFlush(m, Since(store, mark), "final flush, seed=" + std::to_string(seed));
    for (uint64_t lba = 0; lba < kRange; ++lba) {
      ASSERT_EQ(store.Sector(lba), m.bytes[lba])
          << "the store diverges at sector " << lba << " after Flush, seed=" << seed << "\n"
          << trace.str();
    }
    if (capacity > 1) {
      EXPECT_GT(runs_with_neighbours_, 0u) << "no victim took a neighbour, seed=" << seed;
    }
  }

  void CheckFlush(Model& m, const std::vector<RecordingStore::Call>& calls,
                  const std::string& where) {
    std::vector<uint64_t> dirty;
    for (const auto& [lba, d] : m.dirty) {
      if (d) {
        dirty.push_back(lba);
      }
    }
    ASSERT_EQ(calls.size(), dirty.size()) << "Flush writes one dirty sector per call, " << where;
    for (size_t i = 0; i < calls.size(); ++i) {
      ASSERT_EQ(calls[i].kind, RecordingStore::Kind::kWrite) << where;
      ASSERT_EQ(calls[i].wcount, 1u) << where;
      ASSERT_EQ(calls[i].wlba, dirty[i]) << "Flush order, " << where;
      ASSERT_EQ(0, std::memcmp(calls[i].wdata.data(), m.bytes[dirty[i]].data(), kSector))
          << where;
      m.dirty[dirty[i]] = false;
    }
  }

  uint64_t runs_with_neighbours_ = 0;
};

TEST_P(BlockCacheRunsPropsTest, SeededStreamsMatchTheModel) {
  mk::Task* task = kernel_.CreateTask("fs");
  kernel_.CreateThread(task, "t", [&](mk::Env& env) {
    for (uint64_t seed : props::SeedsUnderTest()) {
      RunStream(env, seed);
      if (::testing::Test::HasFailure()) {
        break;
      }
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BlockCacheRunsPropsTest, ::testing::Values(1u, 2u, 4u, 16u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "Capacity" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace svc
