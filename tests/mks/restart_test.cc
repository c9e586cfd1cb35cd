// Restart manager tests: death notice -> backoff -> factory respawn ->
// re-registration under the same name, and the restart budget's degraded
// mode once the budget is spent.
#include "src/mks/restart/restart_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"
#include "src/mks/naming/name_server.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mks {
namespace {

constexpr uint32_t kEchoOp = 1;
constexpr char kName[] = "/svc/echo";

struct EchoRequest {
  uint32_t op = kEchoOp;
  uint32_t value = 0;
};

class RestartTest : public mk::KernelTest {
 protected:
  RestartTest() {
    ns_task_ = kernel_.CreateTask("mks-naming");
    ns_ = std::make_unique<NameServer>(kernel_, ns_task_);
    mgr_task_ = kernel_.CreateTask("mks-restart");
    client_task_ = kernel_.CreateTask("client");
    ns_for_client_ = ns_->GrantTo(*client_task_);
  }

  void MakeManager(const RestartPolicy& policy) {
    mgr_ = std::make_unique<RestartManager>(kernel_, mgr_task_, ns_->GrantTo(*mgr_task_), policy);
  }

  // Spawns the next echo-server generation: fresh task, port, ServerLoop.
  mk::Task* SpawnEcho() {
    const int gen = static_cast<int>(tasks_.size());
    mk::Task* task = kernel_.CreateTask("echo-g" + std::to_string(gen));
    auto recv = kernel_.PortAllocate(*task);
    EXPECT_TRUE(recv.ok());
    // The echo server's own loop and stub images, charged as every server does.
    const hw::CodeRegion stub = hw::DefineKernelCode("stub.echo", mk::Costs::kRpcServerStub);
    const hw::CodeRegion loop_code = hw::DefineKernelCode("loop.echo", mk::Costs::kRpcServerLoop);
    auto loop = std::make_shared<mk::ServerLoop>(*recv, "echo");
    kernel_.CreateThread(task, "echo", [loop, stub, loop_code](mk::Env& env) {
      loop->Run<EchoRequest>(env, [l = loop.get(), stub, loop_code](
                                      mk::Env& env, const mk::RpcRequest& rpc,
                                      const EchoRequest& req, const uint8_t*, uint32_t) {
        env.kernel().cpu().Execute(loop_code);
        env.kernel().cpu().Execute(stub);
        if (l->EnterHandler(env, rpc)) {
          env.RpcReply(rpc.token, &req, rpc.req_len);
        }
      });
    });
    tasks_.push_back(task);
    recvs_.push_back(*recv);
    loops_.push_back(loop);
    return task;
  }

  RestartManager::Factory EchoFactory() {
    return [this](mk::Env&) {
      mk::Task* task = SpawnEcho();
      auto right = kernel_.MakeSendRight(*task, recvs_.back(), *mgr_task_);
      EXPECT_TRUE(right.ok());
      return RestartManager::Respawned{task, right.ok() ? *right : mk::kNullPort};
    };
  }

  // Like SpawnEcho, but the loop heartbeats to the manager's health port so
  // the watchdog can tell wedged from idle. Requires mgr_ to exist.
  mk::Task* SpawnEchoBeating(uint64_t every_ns) {
    mk::Task* task = SpawnEcho();
    auto health = mgr_->HealthRightFor(*task);
    EXPECT_TRUE(health.ok());
    loops_.back()->EnableHeartbeat(*health, 1, every_ns);
    return task;
  }

  RestartManager::Factory BeatingEchoFactory(uint64_t every_ns) {
    return [this, every_ns](mk::Env&) {
      mk::Task* task = SpawnEchoBeating(every_ns);
      auto right = kernel_.MakeSendRight(*task, recvs_.back(), *mgr_task_);
      EXPECT_TRUE(right.ok());
      return RestartManager::Respawned{task, right.ok() ? *right : mk::kNullPort};
    };
  }

  void StopAll() {
    loops_.back()->Stop();
    mgr_->Stop();
    ns_->Stop();
  }

  mk::Task* ns_task_;
  std::unique_ptr<NameServer> ns_;
  mk::Task* mgr_task_;
  std::unique_ptr<RestartManager> mgr_;
  mk::Task* client_task_;
  mk::PortName ns_for_client_ = mk::kNullPort;
  std::vector<mk::Task*> tasks_;
  std::vector<mk::PortName> recvs_;
  std::vector<std::shared_ptr<mk::ServerLoop>> loops_;
};

TEST_F(RestartTest, CrashRespawnsAndReRegistersUnderSameName) {
  kernel_.tracer().Enable();
  MakeManager(RestartPolicy());
  mk::Task* gen0 = SpawnEcho();
  mgr_->Supervise(kName, gen0, EchoFactory());

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    NameClient nc(ns_for_client_);
    auto right = kernel_.MakeSendRight(*tasks_[0], recvs_[0], *client_task_);
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(nc.Register(env, kName, *right), base::Status::kOk);
    const mk::PortResolver resolver = [&nc](mk::Env& e) { return nc.Resolve(e, kName); };
    mk::PortName cached = mk::kNullPort;
    uint32_t req[2] = {kEchoOp, 1};
    uint32_t reply[2] = {};
    ASSERT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kOk);
    EXPECT_EQ(reply[1], 1u);

    // Crash the server out from under the client.
    env.kernel().TerminateTask(tasks_[0]);
    req[1] = 2;
    ASSERT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kOk)
        << "the respawned server must answer under the same name";
    EXPECT_EQ(reply[1], 2u);
    EXPECT_EQ(mgr_->restarts(kName), 1u);
    EXPECT_FALSE(mgr_->degraded(kName));
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(mgr_->total_restarts(), 1u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("restart.total"), 1u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter(std::string("restart.") + kName + ".restarts"), 1u);
  bool saw_restart_event = false;
  for (const auto& event : kernel_.tracer().Events()) {
    if (event.type == mk::trace::EventType::kServerRestart) {
      saw_restart_event = true;
      EXPECT_EQ(event.a, tasks_.back()->id());
      EXPECT_EQ(event.b, 1u);
    }
  }
  EXPECT_TRUE(saw_restart_event);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

TEST_F(RestartTest, BudgetExhaustionDegradesCleanly) {
  RestartPolicy policy;
  policy.max_restarts = 1;
  MakeManager(policy);
  mk::Task* gen0 = SpawnEcho();
  mgr_->Supervise(kName, gen0, EchoFactory());

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    NameClient nc(ns_for_client_);
    auto right = kernel_.MakeSendRight(*tasks_[0], recvs_[0], *client_task_);
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(nc.Register(env, kName, *right), base::Status::kOk);
    const mk::PortResolver resolver = [&nc](mk::Env& e) { return nc.Resolve(e, kName); };
    mk::PortName cached = mk::kNullPort;
    uint32_t req[2] = {kEchoOp, 1};
    uint32_t reply[2] = {};

    // First crash: within budget, the respawn answers.
    env.kernel().TerminateTask(tasks_[0]);
    ASSERT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kOk);
    EXPECT_EQ(mgr_->restarts(kName), 1u);

    // Second crash: budget spent, name unregistered, service degraded.
    env.kernel().TerminateTask(tasks_.back());
    EXPECT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kUnavailable);
    EXPECT_TRUE(mgr_->degraded(kName));
    EXPECT_EQ(mgr_->restarts(kName), 1u);

    mgr_->Stop();
    ns_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter(std::string("restart.") + kName + ".gave_up"), 1u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The watchdog arm of the tentpole: a server wedged by kStallTask stops
// heartbeating; after heartbeat_deadline_ns of silence the manager
// force-terminates it (kWatchdogKill event, restart.<name>.watchdog_kills)
// and the normal death path respawns it — a robust client rides through.
TEST_F(RestartTest, WatchdogKillsWedgedServerAndRespawns) {
  kernel_.tracer().Enable();
  kernel_.faults().Enable(5);
  // The first request wedges the serving thread forever.
  kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                       mk::fault::FaultMode::kStallTask, 100, /*max_fires=*/1);
  RestartPolicy policy;
  policy.heartbeat_deadline_ns = 2'000'000;  // 2 simulated ms of silence
  policy.backoff_initial_ns = 100'000;
  MakeManager(policy);
  constexpr uint64_t kBeatNs = 500'000;
  mk::Task* gen0 = SpawnEchoBeating(kBeatNs);
  mgr_->Supervise(kName, gen0, BeatingEchoFactory(kBeatNs));

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    NameClient nc(ns_for_client_);
    auto right = kernel_.MakeSendRight(*tasks_[0], recvs_[0], *client_task_);
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(nc.Register(env, kName, *right), base::Status::kOk);
    const mk::PortResolver resolver = [&nc](mk::Env& e) { return nc.Resolve(e, kName); };
    mk::PortName cached = mk::kNullPort;
    mk::RobustCallOptions opts;
    opts.attempt_timeout_ns = 1'500'000;  // below the watchdog deadline
    opts.max_attempts = 10;
    opts.retry_backoff_ns = 500'000;
    uint32_t req[2] = {kEchoOp, 42};
    uint32_t reply[2] = {};
    // The first request wedges gen-0. The call must still complete: attempts
    // time out while the server is silently wedged, the watchdog kills it,
    // the manager respawns, and a retry lands on gen-1.
    ASSERT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply),
                                opts),
              base::Status::kOk);
    EXPECT_EQ(reply[1], 42u);
    EXPECT_EQ(mgr_->watchdog_kills(kName), 1u);
    EXPECT_EQ(mgr_->restarts(kName), 1u);
    EXPECT_FALSE(mgr_->degraded(kName));
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter(std::string("restart.") + kName +
                                               ".watchdog_kills"),
            1u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("restart.watchdog_kills"), 1u);
  bool saw_kill_event = false;
  for (const auto& event : kernel_.tracer().Events()) {
    if (event.type == mk::trace::EventType::kWatchdogKill) {
      saw_kill_event = true;
      EXPECT_EQ(event.a, tasks_[0]->id());
      EXPECT_GT(event.b, policy.heartbeat_deadline_ns);
    }
  }
  EXPECT_TRUE(saw_kill_event);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// An idle-but-healthy server must NOT be watchdog-killed: the timed receive
// beats from idle, so silence only ever means wedged.
TEST_F(RestartTest, IdleServerIsNotKilledByWatchdog) {
  RestartPolicy policy;
  policy.heartbeat_deadline_ns = 1'000'000;
  MakeManager(policy);
  constexpr uint64_t kBeatNs = 300'000;  // beats 3x faster than the deadline
  mk::Task* gen0 = SpawnEchoBeating(kBeatNs);
  mgr_->Supervise(kName, gen0, BeatingEchoFactory(kBeatNs));

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    // A long idle stretch: many deadlines pass with zero requests.
    (void)env.SleepNs(20'000'000);
    EXPECT_EQ(mgr_->watchdog_kills(kName), 0u);
    EXPECT_EQ(mgr_->restarts(kName), 0u);
    // And the server still answers.
    auto right = kernel_.MakeSendRight(*tasks_[0], recvs_[0], *client_task_);
    ASSERT_TRUE(right.ok());
    uint32_t req[2] = {kEchoOp, 9};
    uint32_t reply[2] = {};
    EXPECT_EQ(env.RpcCall(*right, req, sizeof(req), reply, sizeof(reply)), base::Status::kOk);
    EXPECT_EQ(reply[1], 9u);
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Deliberate shutdown: Unsupervise withdraws the watchdog before the server
// is stopped. Without it the stale heartbeat state would read as a wedge and
// the manager would "kill" the exited task and respawn an orphan generation.
TEST_F(RestartTest, UnsupervisedStopIsNotKilledOrRespawned) {
  kernel_.tracer().Enable();
  RestartPolicy policy;
  policy.heartbeat_deadline_ns = 1'000'000;
  MakeManager(policy);
  constexpr uint64_t kBeatNs = 300'000;
  mk::Task* gen0 = SpawnEchoBeating(kBeatNs);
  mgr_->Supervise(kName, gen0, BeatingEchoFactory(kBeatNs));

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    (void)env.SleepNs(3'000'000);  // several beats land: the watchdog is armed
    mgr_->Unsupervise(kName);
    loops_.back()->Stop();
    // Far past the deadline: a still-supervised stopped server would have
    // been "killed" and respawned by now.
    (void)env.SleepNs(5'000'000);
    EXPECT_EQ(mgr_->total_restarts(), 0u);
    EXPECT_EQ(kernel_.tracer().metrics().Counter("restart.watchdog_kills"), 0u);
    EXPECT_EQ(tasks_.size(), 1u);  // no orphan generation spawned
    mgr_->Stop();
    ns_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Satellite: ResetBudget revives a degraded server — budget cleared, factory
// re-run, name re-registered, restart.<name>.revived exported.
TEST_F(RestartTest, ResetBudgetRevivesDegradedServer) {
  RestartPolicy policy;
  policy.max_restarts = 0;  // first death degrades immediately
  MakeManager(policy);
  mk::Task* gen0 = SpawnEcho();
  mgr_->Supervise(kName, gen0, EchoFactory());

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    NameClient nc(ns_for_client_);
    auto right = kernel_.MakeSendRight(*tasks_[0], recvs_[0], *client_task_);
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(nc.Register(env, kName, *right), base::Status::kOk);
    const mk::PortResolver resolver = [&nc](mk::Env& e) { return nc.Resolve(e, kName); };
    mk::PortName cached = mk::kNullPort;
    uint32_t req[2] = {kEchoOp, 5};
    uint32_t reply[2] = {};

    env.kernel().TerminateTask(tasks_[0]);
    EXPECT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kUnavailable);
    EXPECT_TRUE(mgr_->degraded(kName));

    // Administrative revive: the manager respawns and re-registers.
    ASSERT_EQ(mgr_->ResetBudget(env, kName), base::Status::kOk);
    (void)env.SleepNs(1'000'000);  // let the manager process the request
    EXPECT_FALSE(mgr_->degraded(kName));
    EXPECT_EQ(mgr_->restarts(kName), 0u) << "revive resets the budget";
    cached = mk::kNullPort;
    ASSERT_EQ(mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kOk);
    EXPECT_EQ(reply[1], 5u);
    StopAll();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter(std::string("restart.") + kName + ".revived"), 1u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Without a name service (kNullPort) the manager still respawns; clients
// with a direct factory-published right recover without naming.
TEST_F(RestartTest, RespawnsWithoutNameService) {
  mgr_ = std::make_unique<RestartManager>(kernel_, mgr_task_, mk::kNullPort, RestartPolicy());
  mk::Task* gen0 = SpawnEcho();
  mgr_->Supervise(kName, gen0, EchoFactory());

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    env.kernel().TerminateTask(tasks_[0]);
    // Give the manager's backoff window time to pass.
    (void)env.SleepNs(5'000'000);
    EXPECT_EQ(mgr_->restarts(kName), 1u);
    // Call the respawned generation directly.
    auto right = kernel_.MakeSendRight(*tasks_.back(), recvs_.back(), *client_task_);
    ASSERT_TRUE(right.ok());
    uint32_t req[2] = {kEchoOp, 7};
    uint32_t reply[2] = {};
    EXPECT_EQ(env.RpcCall(*right, req, sizeof(req), reply, sizeof(reply)), base::Status::kOk);
    EXPECT_EQ(reply[1], 7u);
    loops_.back()->Stop();
    mgr_->Stop();
    ns_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace mks
