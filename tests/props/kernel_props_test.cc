// Parameterized property sweeps over the microkernel itself, and
// differential tests of the cache and TLB models against a reference LRU.
//
// The differential tests draw seeded random streams; WPOS_PROPS_SEED selects
// a single seed for CI soaks, and without it a fixed batch of seeds runs.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/hw/cache.h"
#include "src/hw/tlb.h"
#include "tests/mk/kernel_test_fixture.h"
#include "tests/props/seeds.h"

namespace mk {
namespace {

// --- RPC payload sweep: bytes survive verbatim at every size -------------------

class RpcPayloadTest : public KernelTest, public ::testing::WithParamInterface<uint32_t> {};

TEST_P(RpcPayloadTest, EchoPreservesEveryByte) {
  const uint32_t size = GetParam();
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  kernel_.CreateThread(server, "s", [&, recv = *recv](mk::Env& env) {
    char buf[512];
    std::vector<uint8_t> bulk(128 * 1024);
    RpcRef ref;
    ref.recv_buf = bulk.data();
    ref.recv_cap = static_cast<uint32_t>(bulk.size());
    auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
    ASSERT_TRUE(req.ok());
    // Echo whichever channel the payload came through.
    if (req->ref_len > 0) {
      env.RpcReply(req->token, buf, req->req_len, bulk.data(), req->ref_len);
    } else {
      env.RpcReply(req->token, buf, req->req_len);
    }
  });
  bool ok = false;
  kernel_.CreateThread(client, "c", [&, send = *send](mk::Env& env) {
    base::Rng rng(size + 1);
    std::vector<uint8_t> payload(size);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> reply_inline(512);
    std::vector<uint8_t> reply_bulk(128 * 1024);
    uint32_t reply_len = 0;
    base::Status st;
    if (size <= 256) {
      st = env.RpcCall(send, payload.data(), size, reply_inline.data(),
                       static_cast<uint32_t>(reply_inline.size()), &reply_len);
      ASSERT_EQ(st, base::Status::kOk);
      ASSERT_EQ(reply_len, size);
      ASSERT_TRUE(std::equal(payload.begin(), payload.end(), reply_inline.begin()));
    } else {
      RpcRef ref;
      ref.send_data = payload.data();
      ref.send_len = size;
      ref.recv_buf = reply_bulk.data();
      ref.recv_cap = static_cast<uint32_t>(reply_bulk.size());
      st = env.RpcCall(send, nullptr, 0, reply_inline.data(),
                       static_cast<uint32_t>(reply_inline.size()), &reply_len, &ref);
      ASSERT_EQ(st, base::Status::kOk);
      ASSERT_EQ(ref.recv_len, size);
      ASSERT_TRUE(std::equal(payload.begin(), payload.end(), reply_bulk.begin()));
    }
    ok = true;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RpcPayloadTest,
                         ::testing::Values(0u, 1u, 31u, 32u, 255u, 257u, 4096u, 65536u));

// --- Legacy IPC payload sweep ---------------------------------------------------

class MachMsgPayloadTest : public KernelTest, public ::testing::WithParamInterface<uint32_t> {};

TEST_P(MachMsgPayloadTest, InlineDataSurvivesQueueing) {
  const uint32_t size = GetParam();
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  std::vector<uint8_t> sent(size);
  base::Rng rng(size * 13 + 1);
  for (auto& byte : sent) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  kernel_.CreateThread(a, "sender", [&, send = *send](mk::Env& env) {
    MachMessage msg;
    msg.msg_id = size;
    msg.dest = send;
    msg.inline_data = sent;
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
  });
  std::vector<uint8_t> got;
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](mk::Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    EXPECT_EQ(msg.msg_id, size);
    got = msg.inline_data;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MachMsgPayloadTest,
                         ::testing::Values(0u, 1u, 64u, 1024u, 16384u));

// --- VM fault sweep: touch patterns always resolve to consistent frames ---------

class VmTouchTest : public KernelTest,
                    public ::testing::WithParamInterface<std::pair<uint32_t, uint32_t>> {};

TEST_P(VmTouchTest, RandomReadWritePatternIsCoherent) {
  const auto [pages, seed] = GetParam();
  Task* task = kernel_.CreateTask("t");
  auto base_addr = kernel_.VmAllocate(*task, pages * hw::kPageSize);
  ASSERT_TRUE(base_addr.ok());
  kernel_.CreateThread(task, "w", [&, addr = *base_addr](mk::Env& env) {
    base::Rng rng(seed);
    std::map<uint64_t, uint32_t> oracle;  // word address -> value
    for (int i = 0; i < 200; ++i) {
      const uint64_t offset = (rng.NextBelow(pages * hw::kPageSize / 4)) * 4;
      if (rng.NextBool(0.5)) {
        const uint32_t v = static_cast<uint32_t>(rng.Next());
        ASSERT_EQ(env.CopyOut(addr + offset, &v, 4), base::Status::kOk);
        oracle[offset] = v;
      } else {
        uint32_t v = 1;
        ASSERT_EQ(env.CopyIn(addr + offset, &v, 4), base::Status::kOk);
        const uint32_t expected = oracle.contains(offset) ? oracle[offset] : 0;
        ASSERT_EQ(v, expected) << "offset " << offset;
      }
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_LE(task->zero_fills, pages);
}

INSTANTIATE_TEST_SUITE_P(Patterns, VmTouchTest,
                         ::testing::Values(std::make_pair(1u, 7u), std::make_pair(4u, 11u),
                                           std::make_pair(16u, 13u),
                                           std::make_pair(64u, 17u)));

}  // namespace
}  // namespace mk

// --- Cache and TLB geometry sweeps (pure hw, no kernel) ----------------------------

namespace hw {
namespace {

// The replacement the recency-ordered models must reproduce: every line
// carries the tick of its last access, and a miss fills the first empty way,
// else the way with the oldest stamp. Set, tag and line come from division,
// not from the models' shifts and masks.
struct StampLruSets {
  struct Way {
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t stamp = 0;
  };

  StampLruSets(uint64_t sets, uint32_t ways) : sets(sets), ways(ways), way(sets * ways) {}

  // Returns the way holding `tag` in `set` after the access, and whether it
  // was there before; `evicted` receives the way a miss replaced.
  Way* Touch(uint64_t set, uint64_t tag, bool* hit, Way* evicted) {
    ++tick;
    Way* base = &way[set * ways];
    for (uint32_t w = 0; w < ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].stamp = tick;
        *hit = true;
        return &base[w];
      }
    }
    Way* victim = &base[0];
    for (uint32_t w = 0; w < ways; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].stamp < victim->stamp) {
        victim = &base[w];
      }
    }
    *evicted = *victim;
    *victim = {.tag = tag, .valid = true, .dirty = false, .stamp = tick};
    *hit = false;
    return victim;
  }

  uint64_t sets;
  uint32_t ways;
  std::vector<Way> way;
  uint64_t tick = 0;
};

class StampLruCache {
 public:
  explicit StampLruCache(const CacheConfig& c)
      : line_bytes_(c.line_bytes), lru_(c.size_bytes / (c.line_bytes * c.ways), c.ways) {}

  Cache::AccessResult Access(PhysAddr addr, bool write) {
    ++stats_.accesses;
    const uint64_t line = addr / line_bytes_;
    bool hit = false;
    StampLruSets::Way evicted;
    StampLruSets::Way* w = lru_.Touch(line % lru_.sets, line / lru_.sets, &hit, &evicted);
    w->dirty = w->dirty || write;
    if (hit) {
      return {.hit = true, .writeback = false};
    }
    ++stats_.misses;
    const bool writeback = evicted.valid && evicted.dirty;
    stats_.writebacks += writeback ? 1 : 0;
    return {.hit = false, .writeback = writeback};
  }

  void Flush() {
    for (StampLruSets::Way& w : lru_.way) {
      stats_.writebacks += w.valid && w.dirty ? 1 : 0;
      w.valid = false;
      w.dirty = false;
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  uint64_t line_bytes_;
  StampLruSets lru_;
  CacheStats stats_;
};

// Seeded address stream over `window` units: half the draws re-touch one of
// the last 16, half are uniform, so sets conflict and evict and hits land at
// every recency depth of every geometry below.
class ReuseStream {
 public:
  ReuseStream(uint64_t seed, uint64_t window) : rng_(seed), window_(window) {}

  uint64_t Next() {
    const uint64_t a = (count_ > 0 && rng_.NextBool(0.5))
                           ? recent_[rng_.NextBelow(count_ < 16 ? count_ : 16)]
                           : rng_.NextBelow(window_);
    recent_[count_++ % 16] = a;
    return a;
  }

  base::Rng& rng() { return rng_; }

 private:
  base::Rng rng_;
  uint64_t window_;
  uint64_t recent_[16] = {};
  uint64_t count_ = 0;
};

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {};

// One draw in ten moves `addr` into line address 0 (bytes 0 to line - 1) or
// into the top line of the address space, keeping its offset in the line.
// Empty slots hold an all-ones marker, and neither edge may ever hit one.
PhysAddr EdgeLine(ReuseStream& stream, PhysAddr addr, uint32_t line) {
  switch (stream.rng().NextBelow(20)) {
    case 0:
      return addr % line;
    case 1:
      return ~0ull - (line - 1) + addr % line;
    default:
      return addr;
  }
}

TEST_P(CacheGeometryTest, LruNeverEvictsWithinWaySetCapacity) {
  const auto [size, line, ways] = GetParam();
  Cache cache(CacheConfig{size, line, ways});
  // Touch exactly `ways` distinct lines in one set, then re-touch: all hits.
  const uint32_t sets = size / (line * ways);
  for (uint32_t w = 0; w < ways; ++w) {
    cache.Access(static_cast<PhysAddr>(w) * sets * line, false);
  }
  for (uint32_t w = 0; w < ways; ++w) {
    EXPECT_TRUE(cache.Access(static_cast<PhysAddr>(w) * sets * line, false).hit)
        << "way " << w;
  }
  // One more conflicting line evicts exactly the LRU (way 0).
  cache.Access(static_cast<PhysAddr>(ways) * sets * line, false);
  EXPECT_FALSE(cache.Access(0, false).hit);
}

TEST_P(CacheGeometryTest, SequentialSweepMissesOncePerLine) {
  const auto [size, line, ways] = GetParam();
  Cache cache(CacheConfig{size, line, ways});
  for (PhysAddr a = 0; a < size; a += line) {
    EXPECT_FALSE(cache.Access(a, false).hit);
  }
  EXPECT_EQ(cache.stats().misses, size / line);
  for (PhysAddr a = 0; a < size; a += line) {
    EXPECT_TRUE(cache.Access(a, false).hit);
  }
}

TEST_P(CacheGeometryTest, MatchesStampLruReference) {
  const auto [size, line, ways] = GetParam();
  for (const uint64_t seed : props::SeedsUnderTest()) {
    Cache cache(CacheConfig{size, line, ways});
    StampLruCache ref(CacheConfig{size, line, ways});
    // Addresses over four times the cache, 30% writes, a flush every few
    // thousand accesses.
    ReuseStream stream(seed, 4ull * size);
    for (int i = 0; i < 60000; ++i) {
      if (stream.rng().NextBelow(3000) == 0) {
        cache.Flush();
        ref.Flush();
      }
      const PhysAddr addr = EdgeLine(stream, stream.Next(), line);
      const bool write = stream.rng().NextBool(0.3);
      const Cache::AccessResult got = cache.Access(addr, write);
      const Cache::AccessResult want = ref.Access(addr, write);
      ASSERT_EQ(got.hit, want.hit) << "seed=" << seed << " access " << i << " addr " << addr;
      ASSERT_EQ(got.writeback, want.writeback)
          << "seed=" << seed << " access " << i << " addr " << addr;
    }
    EXPECT_EQ(cache.stats().accesses, ref.stats().accesses) << "seed=" << seed;
    EXPECT_EQ(cache.stats().misses, ref.stats().misses) << "seed=" << seed;
    EXPECT_EQ(cache.stats().writebacks, ref.stats().writebacks) << "seed=" << seed;
  }
}

TEST_P(CacheGeometryTest, WalkMatchesStampLruReference) {
  const auto [size, line, ways] = GetParam();
  const uint64_t sets = size / (line * ways);
  // Strides in lines: 0 re-touches one line; sets + 1 steps through
  // consecutive sets with a new tag each; sets keeps a whole run in one set,
  // so a run evicts its own lines.
  const uint64_t strides[] = {0, 1, 3, sets + 1, sets};
  for (const uint64_t seed : props::SeedsUnderTest()) {
    Cache cache(CacheConfig{size, line, ways});
    StampLruCache ref(CacheConfig{size, line, ways});
    ReuseStream stream(seed, 4ull * size);
    for (int run = 0; run < 6000; ++run) {
      if (stream.rng().NextBelow(300) == 0) {
        cache.Flush();
        ref.Flush();
      }
      const uint64_t count = stream.rng().NextBelow(41);
      const uint64_t stride = strides[stream.rng().NextBelow(5)];
      // A run that lands on the top line ends there, so it never wraps.
      PhysAddr addr = EdgeLine(stream, stream.Next(), line);
      if (addr >= ~0ull - (line - 1) && count > 0) {
        addr -= (count - 1) * stride * line;
      }
      const bool write = stream.rng().NextBool(0.3);
      const CacheStats got = cache.AccessLines(addr, count, stride, write);
      uint64_t misses = 0;
      uint64_t writebacks = 0;
      for (uint64_t i = 0; i < count; ++i) {
        const Cache::AccessResult want = ref.Access(addr + i * stride * line, write);
        misses += want.hit ? 0 : 1;
        writebacks += want.writeback ? 1 : 0;
      }
      ASSERT_EQ(got.misses, misses) << "seed=" << seed << " run " << run << " addr " << addr
                                    << " count " << count << " stride " << stride;
      ASSERT_EQ(got.writebacks, writebacks) << "seed=" << seed << " run " << run << " addr "
                                            << addr << " count " << count << " stride " << stride;
    }
    EXPECT_EQ(cache.stats().accesses, ref.stats().accesses) << "seed=" << seed;
    EXPECT_EQ(cache.stats().misses, ref.stats().misses) << "seed=" << seed;
    EXPECT_EQ(cache.stats().writebacks, ref.stats().writebacks) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometryTest,
                         ::testing::Values(std::make_tuple(8192u, 32u, 2u),
                                           std::make_tuple(8192u, 32u, 1u),
                                           std::make_tuple(16384u, 32u, 4u),
                                           std::make_tuple(4096u, 16u, 2u),
                                           std::make_tuple(32768u, 64u, 8u)));

class TlbGeometryTest : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(TlbGeometryTest, MatchesStampLruReference) {
  const auto [entries, ways] = GetParam();
  for (const uint64_t seed : props::SeedsUnderTest()) {
    Tlb tlb(TlbConfig{.entries = entries, .ways = ways});
    StampLruSets ref(entries / ways, ways);
    uint64_t misses = 0;
    uint64_t flushes = 0;
    ReuseStream stream(seed, 4ull * entries);
    for (int i = 0; i < 60000; ++i) {
      if (stream.rng().NextBelow(3000) == 0) {
        tlb.Flush();
        ++flushes;
        for (StampLruSets::Way& w : ref.way) {
          w.valid = false;
        }
      }
      const uint64_t vpn = stream.Next();
      bool want = false;
      StampLruSets::Way evicted;
      ref.Touch(vpn % ref.sets, vpn / ref.sets, &want, &evicted);
      misses += want ? 0 : 1;
      ASSERT_EQ(tlb.Access(vpn), want) << "seed=" << seed << " access " << i << " vpn " << vpn;
    }
    EXPECT_EQ(tlb.stats().accesses, 60000u) << "seed=" << seed;
    EXPECT_EQ(tlb.stats().misses, misses) << "seed=" << seed;
    EXPECT_EQ(tlb.stats().flushes, flushes) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TlbGeometryTest,
                         ::testing::Values(std::make_pair(64u, 4u), std::make_pair(64u, 1u),
                                           std::make_pair(64u, 2u), std::make_pair(64u, 8u)));

}  // namespace
}  // namespace hw
