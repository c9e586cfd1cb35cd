// Client-side FS cache: semantics must be byte-identical to the uncached
// client, only with fewer RPCs; coherence must survive writes (write-through
// invalidation) and caching must be invisible when disabled.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/svc/fs/file_server.h"
#include "src/svc/fs/fs_cache.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

// A file server with one HPFS volume; the client under test runs in its own
// task with (or without) the client-side cache enabled.
class FsCacheTest : public mk::KernelTest {
 protected:
  FsCacheTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 256 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    server_ = std::make_unique<FileServer>(kernel_, kernel_.CreateTask("file-server"));
    EXPECT_EQ(server_->AddVolume("/", store_.get()), base::Status::kOk);
    client_task_ = kernel_.CreateTask("client");
    service_ = server_->GrantTo(*client_task_);
    server_->StartMkfs();
  }

  void RunClient(bool cached, std::function<void(mk::Env&, FsClient&)> body) {
    kernel_.CreateThread(client_task_, "client", [this, cached, body](mk::Env& env) {
      FsClient fs(service_);
      if (cached) {
        fs.EnableCache();
      }
      body(env, fs);
      server_->Stop();
    });
    ASSERT_EQ(kernel_.Run(), 0u);
  }

  // The server's per-request counter: the cache's whole point is shrinking
  // this for the same client-visible behaviour.
  uint64_t ServerOps() { return kernel_.tracer().metrics().Counter("server.fs.ops"); }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<FileServer> server_;
  mk::Task* client_task_;
  mk::PortName service_;
};

TEST_F(FsCacheTest, SequentialReadsAreByteIdenticalWithFewerRpcs) {
  // 16K of a deterministic pattern, written uncached-style (write-behind
  // flushed by Close), then read back twice: once through the cache, once
  // around it. Same bytes, fewer server round trips.
  RunClient(true, [&](mk::Env& env, FsClient& fs) {
    constexpr uint32_t kSize = 16 * 1024;
    constexpr uint32_t kChunk = 512;
    std::vector<uint8_t> data(kSize);
    for (uint32_t i = 0; i < kSize; ++i) {
      data[i] = static_cast<uint8_t>((i * 7 + 3) & 0xFF);
    }
    auto h = fs.Open(env, "/seq.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    for (uint32_t off = 0; off < kSize; off += kChunk) {
      auto wrote = fs.Write(env, *h, off, data.data() + off, kChunk);
      ASSERT_TRUE(wrote.ok());
      EXPECT_EQ(*wrote, kChunk);
    }
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);

    auto rh = fs.Open(env, "/seq.dat", 0);
    ASSERT_TRUE(rh.ok());
    const uint64_t ops_before = ServerOps();
    const uint64_t hits_before = fs.cache()->hits();
    std::vector<uint8_t> out(kSize);
    for (uint32_t off = 0; off < kSize; off += kChunk) {
      auto got = fs.Read(env, *rh, off, out.data() + off, kChunk);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, kChunk);
    }
    const uint64_t read_rpcs = ServerOps() - ops_before;
    EXPECT_EQ(out, data);
    EXPECT_LT(read_rpcs, kSize / kChunk / 2)
        << "read-ahead should serve most sequential reads without an RPC";
    EXPECT_GT(fs.cache()->hits(), hits_before);
    // Reading past EOF behaves exactly like the uncached client: short read.
    uint8_t tail[64];
    auto past = fs.Read(env, *rh, kSize - 16, tail, sizeof(tail));
    ASSERT_TRUE(past.ok());
    EXPECT_EQ(*past, 16u);
    ASSERT_EQ(fs.Close(env, *rh), base::Status::kOk);
  });
}

TEST_F(FsCacheTest, WriteThroughInvalidationKeepsReadsCoherent) {
  RunClient(true, [&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/coherent.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    char first[] = "aaaaaaaaaaaaaaaa";
    ASSERT_TRUE(fs.Write(env, *h, 0, first, sizeof(first)).ok());
    // Prime the read cache (sequential from 0 -> read-ahead span).
    char out[32] = {};
    auto got = fs.Read(env, *h, 0, out, sizeof(first));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::memcmp(out, first, sizeof(first)), 0);
    // Overwrite the cached span; the overlapping read span must drop.
    const uint64_t inval_before = fs.cache()->invalidations();
    char second[] = "bbbbbbbbbbbbbbbb";
    ASSERT_TRUE(fs.Write(env, *h, 0, second, sizeof(second)).ok());
    EXPECT_GT(fs.cache()->invalidations(), inval_before);
    // The next read sees the new bytes, not the stale cached span.
    std::memset(out, 0, sizeof(out));
    got = fs.Read(env, *h, 0, out, sizeof(second));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::memcmp(out, second, sizeof(second)), 0);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FsCacheTest, WriteBehindCoalescesAndFlushesOnClose) {
  RunClient(true, [&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/coalesce.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    const uint64_t ops_before = ServerOps();
    // 32 contiguous 128-byte writes: one coalesced run, zero RPCs until the
    // explicit flush point.
    uint8_t chunk[128];
    for (uint32_t i = 0; i < 32; ++i) {
      std::memset(chunk, 'A' + (i % 26), sizeof(chunk));
      auto wrote = fs.Write(env, *h, i * sizeof(chunk), chunk, sizeof(chunk));
      ASSERT_TRUE(wrote.ok());
      EXPECT_EQ(*wrote, sizeof(chunk));
    }
    EXPECT_EQ(ServerOps(), ops_before) << "contiguous small writes must buffer, not RPC";
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    EXPECT_GT(fs.cache()->writeback_bytes(), 0u);
    // Everything is on the server after close: verify around the cache.
    auto attr = fs.GetAttr(env, "/coalesce.dat");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 32u * 128u);
    auto rh = fs.Open(env, "/coalesce.dat", 0);
    ASSERT_TRUE(rh.ok());
    uint8_t out[128] = {};
    auto got = fs.Read(env, *rh, 31 * 128, out, sizeof(out));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, sizeof(out));
    EXPECT_EQ(out[0], 'A' + (31 % 26));
    ASSERT_EQ(fs.Close(env, *rh), base::Status::kOk);
  });
}

TEST_F(FsCacheTest, StatServedFromPrimedAttrCache) {
  RunClient(true, [&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/stat.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    char payload[100] = {};
    ASSERT_TRUE(fs.Write(env, *h, 0, payload, sizeof(payload)).ok());
    const uint64_t ops_before = ServerOps();
    // The open reply primed the attr cache and the buffered write extended
    // it, so a stat needs no RPC — and still reflects the pending bytes.
    auto attr = fs.Stat(env, *h);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, sizeof(payload));
    EXPECT_FALSE(attr->directory);
    EXPECT_EQ(ServerOps(), ops_before);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FsCacheTest, GenerationBumpDropsCleanStateKeepsDirty) {
  RunClient(true, [&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/gen.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    char first[16] = "fifteen + nul..";
    ASSERT_TRUE(fs.Write(env, *h, 0, first, sizeof(first)).ok());
    char out[64] = {};
    ASSERT_TRUE(fs.Read(env, *h, 0, out, sizeof(first)).ok());  // flushes + primes read-ahead
    // A second write left *dirty* in the write-behind run at bump time.
    char second[16] = "dirty at bump..";
    ASSERT_TRUE(fs.Write(env, *h, sizeof(first), second, sizeof(second)).ok());
    // Simulate a server-death notice: clean state (attrs, read-ahead) drops,
    // the dirty write-behind run must survive — it is the client's only copy.
    const uint64_t gen = fs.cache()->generation();
    fs.cache()->BumpGeneration();
    EXPECT_EQ(fs.cache()->generation(), gen + 1);
    const uint64_t ops_before = ServerOps();
    auto attr = fs.Stat(env, *h);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, sizeof(first) + sizeof(second))
        << "the dirty run must reach the server before the post-bump stat answers";
    EXPECT_GT(ServerOps(), ops_before) << "post-bump stat must refetch from the server";
    std::memset(out, 0, sizeof(out));
    auto got = fs.Read(env, *h, 0, out, sizeof(first) + sizeof(second));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::memcmp(out, first, sizeof(first)), 0);
    EXPECT_EQ(std::memcmp(out + sizeof(first), second, sizeof(second)), 0);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

// With the cache left off, the client must be bit-for-bit the old one: same
// RPC count, same server-side op mix. This is the bench-baseline guarantee.
TEST_F(FsCacheTest, DisabledCacheChangesNothing) {
  RunClient(false, [&](mk::Env& env, FsClient& fs) {
    ASSERT_EQ(fs.cache(), nullptr);
    const uint64_t rpcs_before = kernel_.rpc_calls();
    const uint64_t ops_before = ServerOps();
    auto h = fs.Open(env, "/off.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    char b[256] = {};
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fs.Write(env, *h, i * sizeof(b), b, sizeof(b)).ok());
    }
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fs.Read(env, *h, i * sizeof(b), b, sizeof(b)).ok());
    }
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    // open + 8 writes + 8 reads + close, one RPC each: nothing buffered,
    // nothing prefetched, nothing skipped.
    EXPECT_EQ(kernel_.rpc_calls() - rpcs_before, 18u);
    EXPECT_EQ(ServerOps() - ops_before, 18u);
  });
}

}  // namespace
}  // namespace svc
