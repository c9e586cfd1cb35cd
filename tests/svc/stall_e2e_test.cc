// End-to-end overload-and-hang campaign (the ISSUE 8 acceptance test): the
// file server is wedged mid-workload by a seeded kStallTask, its RPC queue
// is bounded so piled-up callers are shed with kBusy, and the watchdog
// force-restarts the wedged instance. Robust clients must ride through all
// of it: every op completes, no call ever blocks past its retry budget, and
// both recovery mechanisms (shed + watchdog kill) are observably exercised.
//
// Seeded via WPOS_FAULT_SEED like the crash campaign; the stall is armed at
// 100% with max_fires=1 at a point where the next handler entry is
// necessarily the file server's, so the asserted invariants hold for ANY
// seed.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "tests/svc/supervised_fs_fixture.h"

namespace svc {
namespace {

constexpr uint64_t kBeatNs = 500'000;           // server heartbeat period
constexpr uint64_t kWatchdogDeadlineNs = 2'000'000;  // 4 missed beats = wedged
constexpr uint32_t kQueueLimit = 2;             // admission bound on the fs port

mk::RobustCallOptions BoundedOpts() {
  mk::RobustCallOptions opts;
  // Per-attempt deadline well above the watchdog deadline (so one wedge
  // costs at most ~one attempt), total budget bounded by max_attempts.
  opts.attempt_timeout_ns = 5'000'000;
  opts.max_attempts = 10;
  opts.retry_backoff_ns = 500'000;
  return opts;
}

// Upper bound on one robust call's simulated duration: every attempt's
// deadline plus every backoff sleep (doubling, un-jittered worst case).
// "No call blocks past its deadline" is asserted against this ceiling.
uint64_t RobustCallCeilingNs() {
  const mk::RobustCallOptions opts = BoundedOpts();
  uint64_t total = 0;
  uint64_t backoff = opts.retry_backoff_ns;
  for (uint32_t a = 0; a < opts.max_attempts; ++a) {
    total += opts.attempt_timeout_ns;
    if (a > 0) {
      total += backoff;
      backoff *= 2;
    }
  }
  return total + 10'000'000;  // slack for resolver RPCs and server work
}

class StallE2eTest : public SupervisedFsTest {
 protected:
  // Every generation gets the full overload armor: bounded RPC admission
  // on its service port and heartbeats to the manager's watchdog.
  StallE2eTest() {
    Start({.max_restarts = 4,
           .backoff_initial_ns = 100'000,
           .heartbeat_deadline_ns = kWatchdogDeadlineNs},
          [this](FileServer& server) {
            EXPECT_EQ(kernel_.PortSetQueueLimit(*server.task(), server.receive_port(), kQueueLimit),
                      base::Status::kOk);
            auto health = mgr_->HealthRightFor(*server.task());
            EXPECT_TRUE(health.ok());
            server.EnableHeartbeat(*health, 1, kBeatNs);
          });
  }
};

TEST_F(StallE2eTest, WedgedServerIsShedKilledAndRestartedUnderClientsNoses) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);
  kernel_.tracer().Enable();

  constexpr int kClients = 4;
  constexpr uint32_t kRecords = 12;
  const uint64_t call_ceiling_ns = RobustCallCeilingNs();
  int finished = 0;
  uint64_t worst_call_ns = 0;
  uint64_t kills_at_shutdown = 0;

  for (int c = 0; c < kClients; ++c) {
    kernel_.CreateThread(client_task_, "client" + std::to_string(c), [&, c](mk::Env& env) {
      if (c == 0) {
        ASSERT_TRUE(RegisterFs(env).ok());
      } else {
        // Let client 0 register and arm before the herd piles in.
        (void)env.SleepNs(200'000);
      }

      FsClient session(ns_for_client_, kFsName, BoundedOpts());
      const std::string path = "/stall-" + std::to_string(c) + ".dat";
      auto handle = session.Open(env, path, kFsCreate | kFsWrite);
      ASSERT_TRUE(handle.ok()) << base::StatusName(handle.status());

      if (c == 0) {
        // First write completes clean, then the NEXT handler entry — which
        // is necessarily the file server's (every client's cached port is
        // warm, the name server is idle) — wedges the serving thread.
        char warm[32] = "warm-up record";
        auto w = session.Write(env, *handle, 0, warm, sizeof(warm));
        ASSERT_TRUE(w.ok());
        kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                             mk::fault::FaultMode::kStallTask, 100, /*max_fires=*/1);
      }

      for (uint32_t i = 0; i < kRecords; ++i) {
        char block[64];
        std::memset(block, 0, sizeof(block));
        std::snprintf(block, sizeof(block), "client %d record %u", c, i);
        const uint64_t t0 = env.NowNs();
        auto wrote = session.Write(env, *handle, (i + 1) * sizeof(block), block, sizeof(block));
        const uint64_t write_ns = env.NowNs() - t0;
        ASSERT_TRUE(wrote.ok()) << "client " << c << " write " << i << ": "
                                << base::StatusName(wrote.status());
        ASSERT_EQ(*wrote, sizeof(block));
        EXPECT_LE(write_ns, call_ceiling_ns)
            << "client " << c << " write " << i << " blocked past its retry budget";
        if (write_ns > worst_call_ns) {
          worst_call_ns = write_ns;
        }
        char back[64] = {};
        const uint64_t r0 = env.NowNs();
        auto got = session.Read(env, *handle, (i + 1) * sizeof(block), back, sizeof(back));
        const uint64_t read_ns = env.NowNs() - r0;
        ASSERT_TRUE(got.ok()) << "client " << c << " read " << i << ": "
                              << base::StatusName(got.status());
        EXPECT_LE(read_ns, call_ceiling_ns);
        EXPECT_STREQ(back, block);
      }
      ASSERT_EQ(session.Close(env, *handle), base::Status::kOk);

      if (++finished == kClients) {
        kernel_.faults().DisarmAll();
        kills_at_shutdown = mgr_->watchdog_kills(kFsName);
        // Deliberate shutdown must be withdrawn from supervision first, or
        // the watchdog would mistake the stopped server for a wedged one and
        // respawn an orphan.
        mgr_->Unsupervise(kFsName);
        StopAll();
      }
    });
  }
  EXPECT_EQ(kernel_.Run(), 0u);

  // Both halves of the tentpole actually happened, whatever the seed:
  // the wedged instance was watchdog-killed and restarted...
  EXPECT_EQ(kernel_.faults().fires(mk::fault::FaultPoint::kServerHandlerEntry), 1u);
  // (Sampled before Unsupervise dropped the entry; the metric is durable.)
  EXPECT_EQ(kills_at_shutdown, 1u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter(std::string("restart.") + kFsName +
                                               ".watchdog_kills"),
            1u);
  EXPECT_GE(mgr_->total_restarts(), 1u);
  EXPECT_FALSE(mgr_->degraded(kFsName));
  EXPECT_GE(servers_.size(), 2u);
  // ...and the bounded queue shed real callers while it was wedged.
  EXPECT_GT(kernel_.tracer().metrics().Counter("mk.rpc.shed"), 0u);
  EXPECT_GT(kernel_.tracer().metrics().Hist("mk.rpc.queue_depth").count(), 0u);
  EXPECT_GT(worst_call_ns, 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace svc
