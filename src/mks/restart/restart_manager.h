// The restart manager: the microkernel-services supervisor that turns the
// paper's isolation promise into recovery. User-level servers are separate
// failure domains; when one dies, the machine should degrade, restart the
// server, and carry on — not assert.
//
// The manager registers a death-notification port with the kernel
// (Kernel::RegisterDeathWatcher) and supervises servers by name: each
// Supervise() call pairs a server task with a factory that can build a fresh
// instance. On a TaskDeathNotice for a supervised task it waits out an
// exponential backoff (in simulated time), runs the factory, and re-registers
// the new instance's service port in the name service under the same name —
// so a client retrying through RpcCallRobust + name re-resolution lands on
// the respawn without ever knowing the server died. A per-server restart
// budget bounds the loop: once exhausted the manager unregisters the name
// and marks the server degraded, and clients see kUnavailable.
//
// Restart activity is exported through the metrics registry
// ("restart.<name>.restarts", "restart.<name>.gave_up", "restart.total")
// and the trace (EventType::kServerRestart), so a fault-injection campaign's
// recovery behaviour shows up in the same metrics JSON as everything else.
#ifndef SRC_MKS_RESTART_RESTART_MANAGER_H_
#define SRC_MKS_RESTART_RESTART_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mks/naming/name_server.h"

namespace mks {

struct RestartPolicy {
  // Restarts allowed per supervised server before it is declared degraded.
  uint32_t max_restarts = 3;
  // Backoff slept before the first restart; doubles each consecutive one.
  uint64_t backoff_initial_ns = 200'000;
  // Watchdog: a supervised server that has heartbeated at least once (see
  // ServerLoop::EnableHeartbeat) and then goes silent for this long in
  // simulated time is force-terminated — TerminateTask fails its queued
  // callers with kPortDead — and respawned through the normal death path,
  // so a wedged server heals exactly like a crashed one. 0 = watchdog off.
  // While idle the manager wakes every heartbeat_deadline_ns / 2 + 1 to
  // check deadlines.
  uint64_t heartbeat_deadline_ns = 0;
};

// Administrative revive request (RestartManager::ResetBudget): the name of
// the degraded server rides as the message's inline data.
constexpr uint32_t kReviveMsgId = 0x4D11;

class RestartManager {
 public:
  // What a factory hands back: the respawned server's task plus a send
  // right (in the *manager's* port space) for its service port, which the
  // manager re-registers under the supervised name.
  struct Respawned {
    mk::Task* task = nullptr;
    mk::PortName service_right = mk::kNullPort;
  };
  using Factory = std::function<Respawned(mk::Env&)>;

  // `name_service` is a send right to the name service held by `task`
  // (kNullPort for configurations without naming: respawn only, no
  // re-registration).
  RestartManager(mk::Kernel& kernel, mk::Task* task, mk::PortName name_service,
                 const RestartPolicy& policy = RestartPolicy());

  // Starts supervising `server_task` under `name`. The factory is invoked on
  // the manager's thread after each death.
  void Supervise(const std::string& name, mk::Task* server_task, Factory factory);
  // Withdraws supervision before a *deliberate* shutdown. To the watchdog a
  // stopped server is indistinguishable from a wedged one — without this it
  // would "kill" the exited task and respawn an orphan instance.
  void Unsupervise(const std::string& name);
  void Stop();

  // Mints a send right to the manager's notification port in `server_task`'s
  // space, for ServerLoop::EnableHeartbeat / FileServer::EnableHeartbeat.
  // Heartbeats, death notices and revive requests share the one port.
  base::Result<mk::PortName> HealthRightFor(mk::Task& server_task);

  // Registers a callback invoked (with the supervised name) whenever a
  // supervised server dies — before backoff and respawn. Client-side caches
  // hook this to drop state cached against the dead instance (e.g.
  // svc::FsClient::OnServerDeath); listeners must not block.
  void AddDeathListener(std::function<void(const std::string&)> listener) {
    death_listeners_.push_back(std::move(listener));
  }

  // Administratively revives a degraded (gave-up) server: resets its restart
  // budget, respawns it through its factory and re-registers the name.
  // Callable from any task; the request is a kReviveMsgId message handled on
  // the manager's thread (rights minted by the factory must land in the
  // manager's port space). Exports restart.<name>.revived.
  base::Status ResetBudget(mk::Env& env, const std::string& name);

  uint64_t restarts(const std::string& name) const;
  bool degraded(const std::string& name) const;
  uint64_t watchdog_kills(const std::string& name) const;
  uint64_t total_restarts() const { return total_restarts_; }
  mk::PortName notify_port() const { return notify_port_; }

 private:
  struct Entry {
    mk::Task* task = nullptr;
    Factory factory;
    uint32_t restarts = 0;
    bool degraded = false;
    // Watchdog state: the deadline arms once the instance heartbeats (an
    // instance that never beats — heartbeats not enabled — is never killed).
    bool beating = false;
    uint64_t last_beat_ns = 0;
    uint64_t watchdog_kills = 0;
  };

  void Serve(mk::Env& env);
  void HandleTaskDeath(mk::Env& env, mk::TaskId dead);
  void HandleHeartbeat(mk::Env& env, mk::TaskId task);
  void HandleRevive(mk::Env& env, const std::string& name);
  void CheckDeadlines(mk::Env& env);
  uint64_t WatchdogPollNs() const { return policy_.heartbeat_deadline_ns / 2 + 1; }

  mk::Kernel& kernel_;
  mk::Task* task_;
  RestartPolicy policy_;
  mk::PortName notify_port_ = mk::kNullPort;
  std::unique_ptr<NameClient> names_;  // null when name_service == kNullPort
  std::map<std::string, Entry> entries_;
  std::map<mk::TaskId, std::string> by_task_;
  std::vector<std::function<void(const std::string&)>> death_listeners_;
  uint64_t total_restarts_ = 0;
  bool running_ = true;
};

}  // namespace mks

#endif  // SRC_MKS_RESTART_RESTART_MANAGER_H_
