#include "src/mk/analysis/invariants.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mk/analysis/introspect.h"

namespace mk::analysis {

namespace {

// Hash-map iteration order is unspecified; checks that can emit violations
// iterate key-sorted so reports are deterministic run to run.
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) {  // unordered-ok: sorted below
    keys.push_back(entry.first);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string ThreadLabel(const Thread* t) {
  std::ostringstream os;
  os << "thread '" << t->name() << "' (task '" << t->task()->name() << "')";
  return os.str();
}

std::string PortLabel(const Port* p) {
  std::ostringstream os;
  os << "port " << p->id();
  return os.str();
}

// Accumulates violations; each Check* appends to `out`.
class Checker {
 public:
  explicit Checker(const Kernel& kernel) : kernel_(kernel) {}

  std::vector<std::string> Run() {
    IndexObjects();
    CheckPortRights();
    CheckPorts();
    CheckTaskThreadMembership();
    CheckThreadWaitState();
    CheckRpcWaiters();
    CheckCounters();
    return std::move(out_);
  }

 private:
  template <typename... Parts>
  void Violation(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    out_.push_back(os.str());
  }

  void IndexObjects() {
    for (const auto& p : Introspector::ports(kernel_)) {
      known_ports_.insert(p.get());
    }
    for (const auto& t : Introspector::tasks(kernel_)) {
      known_tasks_.insert(t.get());
    }
    for (const auto& t : Introspector::threads(kernel_)) {
      known_threads_.insert(t.get());
    }
    // Census of every wait queue in the system, so thread-state checks can
    // ask "where does this thread appear?".
    auto add_queue = [this](const WaitQueue& q, const std::string& label) {
      std::unordered_set<const Thread*> seen;
      for (const Thread* t : q.waiters()) {
        if (!seen.insert(t).second) {
          Violation(ThreadLabel(t), " enqueued twice on ", label);
        }
        queue_of_[t].push_back({&q, label});
      }
    };
    for (const auto& p : Introspector::ports(kernel_)) {
      add_queue(p->blocked_senders, PortLabel(p.get()) + " blocked_senders");
      add_queue(p->blocked_receivers, PortLabel(p.get()) + " blocked_receivers");
    }
    const auto& sems = Introspector::semaphores(kernel_);
    for (uint32_t id : SortedKeys(sems)) {
      add_queue(sems.at(id).waiters, "semaphore " + std::to_string(id));
    }
    const auto& memsync = Introspector::memsync_waiters(kernel_);
    for (uint64_t addr : SortedKeys(memsync)) {
      add_queue(memsync.at(addr), "memsync@" + std::to_string(addr));
    }
  }

  void CheckPortRights() {
    for (const auto& task : Introspector::tasks(kernel_)) {
      task->port_space().ForEachRight([&](PortName name, const PortRight& right) {
        if (right.port == nullptr) {
          Violation("task '", task->name(), "' right ", name, " names a null port");
          return;
        }
        if (known_ports_.count(right.port) == 0) {
          Violation("task '", task->name(), "' right ", name,
                    " names a port the kernel does not own");
        }
        if (right.refs == 0) {
          Violation("task '", task->name(), "' right ", name, " (", PortLabel(right.port),
                    ") has zero refs but is still in the space");
        }
      });
    }
  }

  void CheckPorts() {
    for (const auto& p : Introspector::ports(kernel_)) {
      const Port* port = p.get();
      if (port->queue.size() > port->queue_limit) {
        Violation(PortLabel(port), " queue ", port->queue.size(), " exceeds limit ",
                  port->queue_limit);
      }
      if (port->dead()) {
        if (!port->queue.empty()) {
          Violation(PortLabel(port), " is dead but holds ", port->queue.size(),
                    " queued message(s)");
        }
        if (!port->blocked_senders.empty() || !port->blocked_receivers.empty()) {
          Violation(PortLabel(port), " is dead but has blocked senders/receivers");
        }
        if (!port->waiting_servers.empty() || !port->waiting_clients.empty()) {
          Violation(PortLabel(port), " is dead but has RPC rendezvous waiters");
        }
        if (port->receiver() != nullptr) {
          Violation(PortLabel(port), " is dead but still names a receiver task");
        }
      }
      if (port->receiver() != nullptr && known_tasks_.count(port->receiver()) == 0) {
        Violation(PortLabel(port), " receiver is not a task the kernel owns");
      }
    }
  }

  void CheckTaskThreadMembership() {
    for (const auto& t : Introspector::threads(kernel_)) {
      if (t->task() == nullptr || known_tasks_.count(t->task()) == 0) {
        Violation("thread '", t->name(), "' has no valid owning task");
        continue;
      }
      bool listed = false;
      for (const Thread* member : t->task()->threads()) {
        listed |= member == t.get();
      }
      if (!listed) {
        Violation(ThreadLabel(t.get()), " missing from its task's thread list");
      }
    }
    for (const auto& task : Introspector::tasks(kernel_)) {
      for (const Thread* member : task->threads()) {
        if (known_threads_.count(member) == 0) {
          Violation("task '", task->name(), "' lists a thread the kernel does not own");
        } else if (member->task() != task.get()) {
          Violation(ThreadLabel(member), " listed by task '", task->name(),
                    "' but points at a different task");
        }
      }
    }
  }

  void CheckThreadWaitState() {
    // RPC rendezvous deques are not WaitQueues; census them separately.
    std::unordered_map<const Thread*, std::string> rendezvous;
    for (const auto& p : Introspector::ports(kernel_)) {
      for (const Thread* t : p->waiting_servers) {
        rendezvous.emplace(t, PortLabel(p.get()) + " waiting_servers");
      }
      for (const Thread* t : p->waiting_clients) {
        rendezvous.emplace(t, PortLabel(p.get()) + " waiting_clients");
      }
    }
    for (const auto& t : Introspector::threads(kernel_)) {
      const Thread* thread = t.get();
      const auto queues = queue_of_.find(thread);
      const size_t appearances = queues == queue_of_.end() ? 0 : queues->second.size();
      if (thread->state() == Thread::State::kBlocked) {
        if (thread->waiting_on != nullptr) {
          if (appearances != 1) {
            Violation(ThreadLabel(thread), " is blocked with waiting_on set but appears on ",
                      appearances, " wait queue(s)");
          } else if (queues->second.front().queue != thread->waiting_on) {
            Violation(ThreadLabel(thread), " waiting_on disagrees with the queue holding it (",
                      queues->second.front().label, ")");
          }
        } else if (appearances != 0) {
          Violation(ThreadLabel(thread), " is blocked with waiting_on unset but sits on ",
                    queues->second.front().label);
        }
      } else {
        if (thread->waiting_on != nullptr) {
          Violation(ThreadLabel(thread), " is not blocked but waiting_on is set");
        }
        if (appearances != 0) {
          Violation(ThreadLabel(thread), " is not blocked but sits on ",
                    queues->second.front().label);
        }
        const auto rv = rendezvous.find(thread);
        if (rv != rendezvous.end()) {
          Violation(ThreadLabel(thread), " is not blocked but parked in ", rv->second);
        }
      }
    }
  }

  void CheckRpcWaiters() {
    const auto& waiters = Introspector::rpc_waiters(kernel_);
    for (uint64_t token : SortedKeys(waiters)) {
      const auto& in_flight = waiters.at(token);
      if (in_flight.client == nullptr || in_flight.server == nullptr) {
        Violation("rpc token ", token, " has a null client or server");
        continue;
      }
      if (in_flight.client == in_flight.server) {
        Violation("rpc token ", token, " names the same thread as client and server");
      }
      if (known_threads_.count(in_flight.client) == 0 ||
          known_threads_.count(in_flight.server) == 0) {
        Violation("rpc token ", token, " names a thread the kernel does not own");
        continue;
      }
      if (in_flight.client->state() == Thread::State::kTerminated) {
        Violation("rpc token ", token, " client ", ThreadLabel(in_flight.client),
                  " already terminated");
      }
      if (in_flight.client->rpc.token != token) {
        Violation("rpc token ", token, " client ", ThreadLabel(in_flight.client),
                  " carries mismatched token ", in_flight.client->rpc.token);
      }
    }
  }

  void CheckCounters() {
    const uint64_t rpc = Introspector::rpc_calls(kernel_);
    const uint64_t ipc = Introspector::mach_msgs(kernel_);
    if (rpc < Introspector::last_rpc_calls(kernel_)) {
      Violation("kernel rpc_calls regressed: ", rpc, " < ",
                Introspector::last_rpc_calls(kernel_));
    }
    if (ipc < Introspector::last_mach_msgs(kernel_)) {
      Violation("kernel mach_msgs regressed: ", ipc, " < ",
                Introspector::last_mach_msgs(kernel_));
    }
    Introspector::last_rpc_calls(kernel_) = rpc;
    Introspector::last_mach_msgs(kernel_) = ipc;
    auto& snapshots = Introspector::last_port_counters(kernel_);
    for (const auto& p : Introspector::ports(kernel_)) {
      auto& snap = snapshots[p->id()];
      if (p->send_count < snap.first || p->rpc_count < snap.second) {
        Violation(PortLabel(p.get()), " message counters regressed (send ", p->send_count, "/",
                  snap.first, ", rpc ", p->rpc_count, "/", snap.second, ")");
      }
      snap = {p->send_count, p->rpc_count};
    }
  }

  struct QueueRef {
    const WaitQueue* queue;
    std::string label;
  };

  const Kernel& kernel_;
  std::vector<std::string> out_;
  std::unordered_set<const Port*> known_ports_;
  std::unordered_set<const Task*> known_tasks_;
  std::unordered_set<const Thread*> known_threads_;
  std::unordered_map<const Thread*, std::vector<QueueRef>> queue_of_;
};

}  // namespace

std::vector<std::string> CollectViolations(const Kernel& kernel) {
  return Checker(kernel).Run();
}

}  // namespace mk::analysis
