// Fault-injection campaign demo: an echo server supervised by the restart
// manager is broken repeatedly by the deterministic injector while a robust
// client runs a fixed workload. The same seed always produces the same
// campaign — same fault points, same restart count, same trace.
//
// Three campaign modes cover the three failure archetypes:
//   crash — the server task dies mid-request; the death notice drives the
//           respawn (the default, the original campaign).
//   stall — the server wedges silently mid-request; only the heartbeat
//           watchdog notices, force-terminates, and respawns it.
//   delay — the server survives but slows down; queued callers ride out
//           seeded delays inside their per-attempt deadlines.
//
//   $ ./fault_campaign                      # seed 1, crash mode
//   $ ./fault_campaign --mode stall         # watchdog recovery campaign
//   $ ./fault_campaign --fault-seed 42      # a different (replayable) run
//   $ ./fault_campaign --json metrics.json  # export counters afterwards
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"
#include "src/mk/trace/exporters.h"
#include "src/mks/naming/name_server.h"
#include "src/mks/restart/restart_manager.h"

namespace {

constexpr uint32_t kEchoOp = 1;
constexpr char kEchoName[] = "/svc/echo";

struct EchoRequest {
  uint32_t op = kEchoOp;
  uint32_t value = 0;
};

struct Fleet {
  mk::Kernel& kernel;
  mk::Task* mgr_task;
  // Set (after the manager exists) to make every generation heartbeat, so
  // the stall campaign's watchdog can tell wedged from idle.
  mks::RestartManager* manager = nullptr;
  uint64_t beat_ns = 0;
  std::vector<mk::Task*> tasks;
  std::vector<mk::PortName> recvs;
  std::vector<std::shared_ptr<mk::ServerLoop>> loops;

  mk::Task* Spawn() {
    const int gen = static_cast<int>(tasks.size());
    mk::Task* task = kernel.CreateTask("echo-g" + std::to_string(gen));
    auto recv = kernel.PortAllocate(*task);
    // The echo server's own loop and stub images, charged as every server does.
    const hw::CodeRegion stub = hw::DefineKernelCode("stub.echo", mk::Costs::kRpcServerStub);
    const hw::CodeRegion loop_code = hw::DefineKernelCode("loop.echo", mk::Costs::kRpcServerLoop);
    auto loop = std::make_shared<mk::ServerLoop>(*recv, "echo");
    if (manager != nullptr && beat_ns != 0) {
      auto health = manager->HealthRightFor(*task);
      if (health.ok()) {
        loop->EnableHeartbeat(*health, 1, beat_ns);
      }
    }
    kernel.CreateThread(task, "echo", [loop, stub, loop_code](mk::Env& env) {
      loop->Run<EchoRequest>(env, [l = loop.get(), stub, loop_code](
                                      mk::Env& env, const mk::RpcRequest& rpc,
                                      const EchoRequest& req, const uint8_t*, uint32_t) {
        env.kernel().cpu().Execute(loop_code);
        env.kernel().cpu().Execute(stub);
        if (l->EnterHandler(env, rpc)) {
          l->Reply(rpc, &req, rpc.req_len);
        }
      });
    });
    tasks.push_back(task);
    recvs.push_back(*recv);
    loops.push_back(loop);
    return task;
  }
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  const char* json_path = nullptr;
  std::string mode = "crash";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
      if (mode != "crash" && mode != "stall" && mode != "delay") {
        std::fprintf(stderr, "unknown --mode %s (crash|stall|delay)\n", mode.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--fault-seed N] [--mode crash|stall|delay] [--json path]\n",
                   argv[0]);
      return 2;
    }
  }

  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  kernel.tracer().Enable();
  kernel.faults().Enable(seed);
  if (mode == "crash") {
    // Crash the echo server at handler entry on ~15% of requests, at most 3
    // times; drop one reply on the wire for good measure.
    kernel.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                        mk::fault::FaultMode::kCrashTask, 15, /*max_fires=*/3);
  } else if (mode == "stall") {
    // Wedge the serving thread silently on ~10% of requests, at most twice.
    // No death notice ever arrives — recovery is the watchdog's alone.
    kernel.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                        mk::fault::FaultMode::kStallTask, 10, /*max_fires=*/2);
  } else {
    // Slow the server down with seeded delays on ~25% of requests; the
    // robust client's per-attempt deadline must absorb them.
    kernel.faults().ArmDelay(mk::fault::FaultPoint::kServerHandlerEntry,
                             mk::fault::Injector::kDefaultDelayMinNs,
                             mk::fault::Injector::kDefaultDelayMaxNs, 25);
  }

  mk::Task* ns_task = kernel.CreateTask("mks-naming");
  mks::NameServer names(kernel, ns_task);
  mk::Task* mgr_task = kernel.CreateTask("mks-restart");
  mks::RestartPolicy policy;
  policy.max_restarts = 5;
  constexpr uint64_t kBeatNs = 500'000;
  if (mode == "stall") {
    // Four missed beats = wedged; the kill + respawn happen well inside one
    // robust-call attempt deadline.
    policy.heartbeat_deadline_ns = 2'000'000;
    policy.backoff_initial_ns = 100'000;
  }
  mks::RestartManager manager(kernel, mgr_task, names.GrantTo(*mgr_task), policy);

  Fleet fleet{kernel, mgr_task};
  if (mode == "stall") {
    fleet.manager = &manager;
    fleet.beat_ns = kBeatNs;
  }
  mk::Task* gen0 = fleet.Spawn();
  manager.Supervise(kEchoName, gen0, [&fleet](mk::Env&) {
    mk::Task* task = fleet.Spawn();
    auto right = fleet.kernel.MakeSendRight(*task, fleet.recvs.back(), *fleet.mgr_task);
    return mks::RestartManager::Respawned{task, right.ok() ? *right : mk::kNullPort};
  });

  mk::Task* client_task = kernel.CreateTask("client");
  const mk::PortName ns_for_client = names.GrantTo(*client_task);
  uint32_t ok_calls = 0;
  bool degraded_at_end = false;  // sampled before Unsupervise drops the entry
  kernel.CreateThread(client_task, "client", [&](mk::Env& env) {
    mks::NameClient nc(ns_for_client);
    auto right = kernel.MakeSendRight(*fleet.tasks[0], fleet.recvs[0], *client_task);
    if (!right.ok() || nc.Register(env, kEchoName, *right) != base::Status::kOk) {
      return;
    }
    const mk::PortResolver resolver = [&nc](mk::Env& e) { return nc.Resolve(e, kEchoName); };
    mk::PortName cached = mk::kNullPort;
    mk::RobustCallOptions opts;
    if (mode != "crash") {
      // A wedged or slowed server never errors — only a bounded attempt
      // turns its silence into a retry.
      opts.attempt_timeout_ns = 5'000'000;
      opts.max_attempts = 10;
      opts.retry_backoff_ns = 500'000;
    }
    for (uint32_t i = 0; i < 60; ++i) {
      uint32_t req[2] = {kEchoOp, i};
      uint32_t reply[2] = {};
      if (mk::RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply),
                            opts) == base::Status::kOk &&
          reply[1] == i) {
        ++ok_calls;
      }
    }
    kernel.faults().DisarmAll();
    degraded_at_end = manager.degraded(kEchoName);
    // Deliberate shutdown: withdraw the watchdog first or it would mistake
    // the stopped server for a wedge and respawn an orphan generation.
    manager.Unsupervise(kEchoName);
    fleet.loops.back()->Stop();
    manager.Stop();
    names.Stop();
  });
  kernel.Run();

  const auto& log = kernel.faults().log();
  std::printf("campaign mode %s seed %llu: %zu fault(s) fired, %llu restart(s), %u/60 calls ok\n",
              mode.c_str(), static_cast<unsigned long long>(seed), log.size(),
              static_cast<unsigned long long>(manager.total_restarts()), ok_calls);
  for (const auto& fired : log) {
    std::printf("  seq %llu: %s / %s\n", static_cast<unsigned long long>(fired.seq),
                mk::fault::FaultPointName(fired.point), mk::fault::FaultModeName(fired.mode));
  }
  std::printf("degraded: %s (budget %u)\n", degraded_at_end ? "yes" : "no", policy.max_restarts);
  if (json_path != nullptr) {
    std::ofstream out(json_path);
    mk::trace::WriteMetricsJson(out, kernel);
    std::printf("metrics written to %s\n", json_path);
  }
  return ok_calls == 60 ? 0 : 1;
}
