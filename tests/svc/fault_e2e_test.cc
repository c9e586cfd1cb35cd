// End-to-end fault-injection campaign: the file server is crashed by the
// injector mid-workload, the restart manager respawns it, and a client
// going through a robust FsClient never notices — every open/write/read/close
// in the workload succeeds, for ANY seed.
//
// The invariants asserted here are seed-independent: zero client-visible
// failures, and the restart metrics equal to the injected crash count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/mk/trace/exporters.h"
#include "tests/svc/supervised_fs_fixture.h"

namespace svc {
namespace {

class FaultE2eTest : public SupervisedFsTest {
 protected:
  FaultE2eTest() { Start({.max_restarts = 8}); }  // well above the armed max_fires
};

TEST_F(FaultE2eTest, InjectedCrashesAreInvisibleToRobustClient) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);
  // ~120 handler entries at 10% with a cap of 2 crashes: virtually every
  // seed fires at least once, no seed can exceed the restart budget.
  kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                       mk::fault::FaultMode::kCrashTask, 10, /*max_fires=*/2);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    ASSERT_TRUE(RegisterFs(env).ok());

    FsClient session(ns_for_client_, kFsName);
    auto handle = session.Open(env, "/campaign.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok()) << base::StatusName(handle.status());
    for (uint32_t i = 0; i < 40; ++i) {
      char block[64];
      std::memset(block, 0, sizeof(block));
      std::snprintf(block, sizeof(block), "record %u of the campaign", i);
      auto wrote = session.Write(env, *handle, i * sizeof(block), block, sizeof(block));
      ASSERT_TRUE(wrote.ok()) << "write " << i << ": " << base::StatusName(wrote.status());
      ASSERT_EQ(*wrote, sizeof(block));
      char back[64] = {};
      auto got = session.Read(env, *handle, i * sizeof(block), back, sizeof(back));
      ASSERT_TRUE(got.ok()) << "read " << i << ": " << base::StatusName(got.status());
      ASSERT_EQ(*got, sizeof(block));
      EXPECT_STREQ(back, block) << "data must survive server crashes (it lives on the disk)";
    }
    ASSERT_EQ(session.Close(env, *handle), base::Status::kOk);

    kernel_.faults().DisarmAll();
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);

  // The recovery bookkeeping must line up exactly: one restart per injected
  // crash, all of them visible in the exported metrics.
  const uint64_t crashes =
      kernel_.faults().fires(mk::fault::FaultPoint::kServerHandlerEntry);
  EXPECT_EQ(kernel_.faults().total_fires(), crashes);
  EXPECT_EQ(mgr_->total_restarts(), crashes);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("restart.total"), crashes);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), crashes);
  EXPECT_EQ(servers_.size(), 1 + crashes);
  EXPECT_FALSE(mgr_->degraded(kFsName));
  if (seed == 1) {
    EXPECT_GT(crashes, 0u) << "the default campaign must actually crash the server";
  }
  std::ostringstream metrics;
  mk::trace::WriteMetricsJson(metrics, kernel_);
  if (crashes > 0) {
    EXPECT_NE(metrics.str().find("restart.total"), std::string::npos);
    EXPECT_NE(metrics.str().find("fault.fired"), std::string::npos);
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The same crash campaign with the client-side cache ENABLED: write-behind,
// read-ahead and the attribute cache must stay coherent across server
// respawns — the restart manager's death notice bumps the cache generation,
// and the robust re-open path bumps it again on its own.
TEST_F(FaultE2eTest, InjectedCrashesAreInvisibleToCachedRobustClient) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);
  kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                       mk::fault::FaultMode::kCrashTask, 10, /*max_fires=*/2);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    ASSERT_TRUE(RegisterFs(env).ok());

    FsClient session(ns_for_client_, kFsName);
    session.EnableCache();
    // Death notices reach the cache the way a real client would wire it: the
    // restart manager fans out to every registered listener before respawn.
    mgr_->AddDeathListener([&session](const std::string& name) {
      if (name == kFsName) {
        session.OnServerDeath();
      }
    });

    auto handle = session.Open(env, "/cached-campaign.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok()) << base::StatusName(handle.status());
    for (uint32_t i = 0; i < 40; ++i) {
      char block[64];
      std::memset(block, 0, sizeof(block));
      std::snprintf(block, sizeof(block), "record %u of the campaign", i);
      auto wrote = session.Write(env, *handle, i * sizeof(block), block, sizeof(block));
      ASSERT_TRUE(wrote.ok()) << "write " << i << ": " << base::StatusName(wrote.status());
      ASSERT_EQ(*wrote, sizeof(block));
      char back[64] = {};
      auto got = session.Read(env, *handle, i * sizeof(block), back, sizeof(back));
      ASSERT_TRUE(got.ok()) << "read " << i << ": " << base::StatusName(got.status());
      ASSERT_EQ(*got, sizeof(block));
      EXPECT_STREQ(back, block) << "cached reads must match what survived on disk";
    }
    // Sequential re-read: one read-ahead fetch serves (almost) the whole
    // file; a crash mid-pass costs at most a couple of refetches.
    for (uint32_t i = 0; i < 40; ++i) {
      char expect[64];
      std::memset(expect, 0, sizeof(expect));
      std::snprintf(expect, sizeof(expect), "record %u of the campaign", i);
      char back[64] = {};
      auto got = session.Read(env, *handle, i * sizeof(back), back, sizeof(back));
      ASSERT_TRUE(got.ok()) << "re-read " << i << ": " << base::StatusName(got.status());
      ASSERT_EQ(*got, sizeof(back));
      EXPECT_STREQ(back, expect);
    }
    ASSERT_EQ(session.Close(env, *handle), base::Status::kOk);

    kernel_.faults().DisarmAll();
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);

  const uint64_t crashes =
      kernel_.faults().fires(mk::fault::FaultPoint::kServerHandlerEntry);
  EXPECT_EQ(mgr_->total_restarts(), crashes);
  EXPECT_FALSE(mgr_->degraded(kFsName));
  // At most 1 cold miss + a couple of crash-induced refetches in the 40-read
  // second pass: the bulk must have been served client-side.
  EXPECT_GE(kernel_.tracer().metrics().Counter("mk.fs.cache.hits"), 30u);
  if (seed == 1) {
    EXPECT_GT(crashes, 0u) << "the default campaign must actually crash the server";
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

TEST_F(FaultE2eTest, BulkOolWritesSurviveMessageCopyFaults) {
  // Large payloads ride the OOL path through a robust FsClient while the
  // injector fails message transfers with kBusy at kMessageCopy. The retry
  // loop must re-arm the bulk descriptor each attempt so every record still
  // round-trips bit-exact.
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    ASSERT_TRUE(RegisterFs(env).ok());

    // Armed only for the robust-session workload: kMessageCopy hits EVERY
    // RPC, and the one-shot Register above has no retry loop to absorb it.
    // max_fires below the robust retry budget (4 attempts): even if every
    // fire lands on the same call, the session still succeeds for ANY seed.
    kernel_.faults().Arm(mk::fault::FaultPoint::kMessageCopy,
                         mk::fault::FaultMode::kTransientError, 15, /*max_fires=*/3);

    FsClient session(ns_for_client_, kFsName);
    auto handle = session.Open(env, "/bulk-campaign.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok()) << base::StatusName(handle.status());
    constexpr uint32_t kBlock = 8 * 1024;  // every record moves out-of-line
    std::vector<uint8_t> block(kBlock);
    std::vector<uint8_t> back(kBlock);
    // 8 records x 8 KB = 64 KB: inside the HPFS per-file limit (12 direct +
    // 128 indirect blocks), every record past the OOL threshold.
    for (uint32_t i = 0; i < 8; ++i) {
      for (uint32_t j = 0; j < kBlock; ++j) {
        block[j] = static_cast<uint8_t>((i * 31 + j) % 251);
      }
      auto wrote = session.Write(env, *handle, i * kBlock, block.data(), kBlock);
      ASSERT_TRUE(wrote.ok()) << "write " << i << ": " << base::StatusName(wrote.status());
      ASSERT_EQ(*wrote, kBlock);
      std::fill(back.begin(), back.end(), 0);
      auto got = session.Read(env, *handle, i * kBlock, back.data(), kBlock);
      ASSERT_TRUE(got.ok()) << "read " << i << ": " << base::StatusName(got.status());
      ASSERT_EQ(*got, kBlock);
      EXPECT_EQ(back, block) << "bulk data must survive transfer faults intact";
    }
    ASSERT_EQ(session.Close(env, *handle), base::Status::kOk);

    kernel_.faults().DisarmAll();
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(kernel_.tracer().metrics().Counter("mk.rpc.ool_transfers"), 0u);
  if (seed == 1) {
    EXPECT_GT(kernel_.faults().fires(mk::fault::FaultPoint::kMessageCopy), 0u)
        << "the default campaign must actually hit the transfer fault";
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The rest of the robust client's surface under the same seeded crash
// arming: scatter/gather I/O, resize, directory and EA operations all
// succeed through respawns, and every read returns what was written.
TEST_F(FaultE2eTest, InjectedCrashesAreInvisibleAcrossTheWholeClientApi) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);
  kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                       mk::fault::FaultMode::kCrashTask, 10, /*max_fires=*/2);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    ASSERT_TRUE(RegisterFs(env).ok());

    FsClient fs(ns_for_client_, kFsName);
    for (uint32_t i = 0; i < 8; ++i) {
      const std::string dir = "/dir" + std::to_string(i);
      const std::string from = dir + "/from.dat";
      const std::string to = dir + "/to.dat";
      ASSERT_EQ(fs.Mkdir(env, dir), base::Status::kOk) << dir;
      auto h = fs.Open(env, from, kFsCreate | kFsWrite);
      ASSERT_TRUE(h.ok()) << base::StatusName(h.status());

      char head[32];
      char tail[48];
      std::memset(head, 'a' + i, sizeof(head));
      std::memset(tail, 'A' + i, sizeof(tail));
      const FsWriteExtent out[] = {{0, head, sizeof(head)}, {64, tail, sizeof(tail)}};
      auto wrote = fs.WriteV(env, *h, out, 2);
      ASSERT_TRUE(wrote.ok()) << "writev " << i << ": " << base::StatusName(wrote.status());
      ASSERT_EQ(*wrote, sizeof(head) + sizeof(tail));
      char head_back[32] = {};
      char tail_back[48] = {};
      const FsReadExtent in[] = {{0, head_back, sizeof(head_back)},
                                 {64, tail_back, sizeof(tail_back)}};
      auto got = fs.ReadV(env, *h, in, 2);
      ASSERT_TRUE(got.ok()) << "readv " << i << ": " << base::StatusName(got.status());
      ASSERT_EQ(*got, sizeof(head) + sizeof(tail));
      EXPECT_EQ(std::memcmp(head_back, head, sizeof(head)), 0);
      EXPECT_EQ(std::memcmp(tail_back, tail, sizeof(tail)), 0);

      ASSERT_EQ(fs.SetSize(env, *h, 40 + i), base::Status::kOk) << "setsize " << i;
      auto attr = fs.Stat(env, *h);
      ASSERT_TRUE(attr.ok()) << "stat " << i << ": " << base::StatusName(attr.status());
      EXPECT_EQ(attr->size, 40u + i);
      ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);

      ASSERT_EQ(fs.Rename(env, from, to), base::Status::kOk) << "rename " << i;
      auto entries = fs.ReadDir(env, dir);
      ASSERT_TRUE(entries.ok()) << "readdir " << i << ": " << base::StatusName(entries.status());
      ASSERT_EQ(entries->size(), 1u);
      EXPECT_EQ((*entries)[0].name, "to.dat");

      const std::string value = "generation-proof " + std::to_string(i);
      ASSERT_EQ(fs.SetEa(env, to, ".TYPE", value), base::Status::kOk) << "setea " << i;
      auto ea = fs.GetEa(env, to, ".TYPE");
      ASSERT_TRUE(ea.ok()) << "getea " << i << ": " << base::StatusName(ea.status());
      EXPECT_EQ(*ea, value);
      ASSERT_EQ(fs.Unlink(env, to), base::Status::kOk) << "unlink " << i;
    }

    kernel_.faults().DisarmAll();
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);

  const uint64_t crashes =
      kernel_.faults().fires(mk::fault::FaultPoint::kServerHandlerEntry);
  EXPECT_EQ(mgr_->total_restarts(), crashes);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("restart.total"), crashes);
  EXPECT_EQ(servers_.size(), 1 + crashes);
  EXPECT_FALSE(mgr_->degraded(kFsName));
  if (seed == 1) {
    EXPECT_GT(crashes, 0u) << "the default campaign must actually crash the server";
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Regression: the robust client once marshalled reads itself and did not cap
// `len` at kFsMaxIo, so an oversized read drew kInvalidArgument, triggered a
// spurious re-open and leaked a server-side open. With one marshalling path
// it behaves exactly like the plain client. No faults are armed.
TEST_F(FaultE2eTest, RobustClientCapsOversizedReadsLikePlainClient) {
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    auto right = RegisterFs(env);
    ASSERT_TRUE(right.ok());

    constexpr uint32_t kFileSize = 16 * 1024;
    std::vector<uint8_t> data(kFileSize, 0x5a);
    std::vector<uint8_t> back(200 * 1024);
    FsClient plain(*right);
    auto ph = plain.Open(env, "/capped.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(ph.ok());
    ASSERT_TRUE(plain.Write(env, *ph, 0, data.data(), kFileSize).ok());
    auto got = plain.Read(env, *ph, 0, back.data(), static_cast<uint32_t>(back.size()));
    ASSERT_TRUE(got.ok()) << base::StatusName(got.status());
    EXPECT_EQ(*got, kFileSize);
    ASSERT_EQ(plain.Close(env, *ph), base::Status::kOk);

    FsClient robust(ns_for_client_, kFsName);
    const uint64_t opens_before = servers_[0]->opens();
    auto rh = robust.Open(env, "/capped.dat");
    ASSERT_TRUE(rh.ok());
    got = robust.Read(env, *rh, 0, back.data(), static_cast<uint32_t>(back.size()));
    ASSERT_TRUE(got.ok()) << base::StatusName(got.status());
    EXPECT_EQ(*got, kFileSize);
    EXPECT_EQ(servers_[0]->opens(), opens_before + 1) << "an oversized read must not re-open";
    ASSERT_EQ(robust.Close(env, *rh), base::Status::kOk);
    EXPECT_EQ(servers_[0]->open_files(), 0u) << "no server-side open may leak";

    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(servers_.size(), 1u);
}

}  // namespace
}  // namespace svc
