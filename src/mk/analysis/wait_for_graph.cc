#include "src/mk/analysis/wait_for_graph.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_set>

#include "src/mk/analysis/introspect.h"

namespace mk::analysis {

namespace {

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

// Live threads of `task`, excluding `self`: the candidates that could act on
// the task's behalf (receive, reply, drain a queue).
std::vector<const Thread*> TaskThreads(const Task* task, const Thread* self) {
  std::vector<const Thread*> out;
  if (task == nullptr) {
    return out;
  }
  for (const Thread* t : task->threads()) {
    if (t != self && t->state() != Thread::State::kTerminated) {
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace

WaitForGraph WaitForGraph::Build(const Kernel& kernel) {
  WaitForGraph g;

  // Which tasks hold a right (of any kind — LookupSendable accepts them all)
  // to each port, i.e. who could initiate a send or RPC to it.
  std::unordered_map<const Port*, std::vector<const Task*>> holders;
  for (const auto& task : Introspector::tasks(kernel)) {
    task->port_space().ForEachRight([&](PortName, const PortRight& right) {
      if (right.port != nullptr) {
        auto& held = holders[right.port];
        if (held.empty() || held.back() != task.get()) {
          held.push_back(task.get());
        }
      }
    });
  }

  // Classify the wait queues so waiting_on resolves to a reason.
  enum class QueueRole { kIpcSend, kIpcReceive, kSemaphore, kMemSync };
  struct QueueInfo {
    QueueRole role;
    const Port* port = nullptr;
    uint64_t id = 0;  // semaphore id / memsync word address
  };
  std::unordered_map<const WaitQueue*, QueueInfo> queue_info;
  for (const auto& p : Introspector::ports(kernel)) {
    queue_info[&p->blocked_senders] = {QueueRole::kIpcSend, p.get(), 0};
    queue_info[&p->blocked_receivers] = {QueueRole::kIpcReceive, p.get(), 0};
  }
  // unordered-ok: builds a keyed lookup table; order does not escape.
  for (const auto& [id, sem] : Introspector::semaphores(kernel)) {
    queue_info[&sem.waiters] = {QueueRole::kSemaphore, nullptr, id};
  }
  // unordered-ok: builds a keyed lookup table; order does not escape.
  for (const auto& [addr, q] : Introspector::memsync_waiters(kernel)) {
    queue_info[&q] = {QueueRole::kMemSync, nullptr, addr};
  }

  // RPC rendezvous membership and in-flight calls.
  std::unordered_map<const Thread*, const Port*> client_parked_on;
  std::unordered_map<const Thread*, const Port*> server_parked_on;
  for (const auto& p : Introspector::ports(kernel)) {
    for (const Thread* t : p->waiting_clients) {
      client_parked_on[t] = p.get();
    }
    for (const Thread* t : p->waiting_servers) {
      server_parked_on[t] = p.get();
    }
  }
  struct InFlight {
    uint64_t token;
    const Thread* server;
  };
  std::unordered_map<const Thread*, InFlight> awaiting_reply;
  // unordered-ok: builds a keyed lookup table; order does not escape.
  for (const auto& [token, rpc] : Introspector::rpc_waiters(kernel)) {
    awaiting_reply[rpc.client] = {token, rpc.server};
  }

  // Live threads of every task that holds a right to `port`, excluding
  // `self`: the candidates that could send to it.
  auto holder_threads = [&](const Port* port, const Thread* self) {
    std::vector<const Thread*> out;
    auto it = holders.find(port);
    if (it == holders.end()) {
      return out;
    }
    for (const Task* task : it->second) {
      for (const Thread* t : TaskThreads(task, self)) {
        out.push_back(t);
      }
    }
    return out;
  };
  // A reflected interrupt line feeds `port` from outside the thread graph.
  auto external_sender = [&](const Port* port) {
    // unordered-ok: existence check only; order does not escape.
    for (const auto& [line, binding] : Introspector::interrupt_bindings(kernel)) {
      if (binding.reflect_port == port) {
        return true;
      }
    }
    return false;
  };

  for (const auto& t : Introspector::threads(kernel)) {
    const Thread* thread = t.get();
    if (thread->state() != Thread::State::kBlocked) {
      continue;
    }
    WaitEdge e;
    e.thread = thread;
    std::ostringstream detail;

    if (auto rpc = awaiting_reply.find(thread); rpc != awaiting_reply.end()) {
      e.kind = WaitKind::kRpcAwaitingReply;
      e.port = thread->rpc.port;
      const Thread* server = rpc->second.server;
      // Any live thread of the server task may complete the call (deferred
      // replies go by token, not by thread).
      e.wakers = TaskThreads(server != nullptr ? server->task() : nullptr, thread);
      detail << "awaiting RPC reply";
      if (e.port != nullptr) {
        detail << " via " << PortLabel(e.port);
      }
      if (server != nullptr) {
        detail << " from task '" << server->task()->name() << "'";
      }
      detail << " (token " << rpc->second.token << ")";
    } else if (auto client = client_parked_on.find(thread); client != client_parked_on.end()) {
      e.kind = WaitKind::kRpcAwaitingServer;
      e.port = client->second;
      e.wakers = TaskThreads(e.port->receiver(), thread);
      detail << "in RpcCall on " << PortLabel(e.port) << " waiting for a server";
      if (e.port->receiver() != nullptr) {
        detail << " (receiver task '" << e.port->receiver()->name() << "')";
      }
    } else if (auto server = server_parked_on.find(thread); server != server_parked_on.end()) {
      e.kind = WaitKind::kRpcReceive;
      e.port = server->second;
      e.wakers = holder_threads(e.port, thread);
      detail << "in RpcReceive on " << PortLabel(e.port) << " waiting for a caller";
    } else if (thread->waiting_on != nullptr) {
      const auto info = queue_info.find(thread->waiting_on);
      if (info == queue_info.end()) {
        // A queue the kernel did not register — treat conservatively as
        // externally wakeable so it never fabricates a deadlock.
        e.kind = WaitKind::kSleepOrExternal;
        e.external_wake = true;
        detail << "blocked on an unregistered wait queue";
      } else {
        switch (info->second.role) {
          case QueueRole::kIpcSend:
            e.kind = WaitKind::kIpcSendFull;
            e.port = info->second.port;
            e.wakers = TaskThreads(e.port->receiver(), thread);
            detail << "in MachMsgSend on " << PortLabel(e.port) << " (queue full, "
                   << e.port->queue.size() << "/" << e.port->queue_limit << ")";
            break;
          case QueueRole::kIpcReceive:
            e.kind = WaitKind::kIpcReceiveEmpty;
            e.port = info->second.port;
            e.wakers = holder_threads(e.port, thread);
            e.external_wake = external_sender(e.port);
            detail << "in MachMsgReceive on " << PortLabel(e.port) << " (queue empty)";
            break;
          case QueueRole::kSemaphore:
            e.kind = WaitKind::kSemaphore;
            // Any live thread can signal a kernel semaphore.
            for (const auto& other : Introspector::threads(kernel)) {
              if (other.get() != thread && other->state() != Thread::State::kTerminated) {
                e.wakers.push_back(other.get());
              }
            }
            detail << "waiting on semaphore " << info->second.id;
            break;
          case QueueRole::kMemSync:
            e.kind = WaitKind::kMemSync;
            for (const auto& other : Introspector::threads(kernel)) {
              if (other.get() != thread && other->state() != Thread::State::kTerminated) {
                e.wakers.push_back(other.get());
              }
            }
            detail << "waiting on memory word @" << std::hex << info->second.id << std::dec;
            break;
        }
      }
    } else {
      // Blocked with no queue and no RPC record: a timed sleep (the machine
      // event that wakes it lives outside the thread graph).
      e.kind = WaitKind::kSleepOrExternal;
      e.external_wake = true;
      detail << "sleeping or awaiting an external wake";
    }

    e.detail = detail.str();
    g.index_[thread] = g.edges_.size();
    g.edges_.push_back(std::move(e));
  }
  return g;
}

const WaitEdge* WaitForGraph::EdgeFor(const Thread* t) const {
  const auto it = index_.find(t);
  return it == index_.end() ? nullptr : &edges_[it->second];
}

std::string WaitForGraph::DescribeBlocked(const Thread* t) const {
  const WaitEdge* e = EdgeFor(t);
  if (e == nullptr) {
    return ThreadLabel(t) + ": not blocked";
  }
  return ThreadLabel(t) + ": " + e->detail;
}

std::vector<const Thread*> WaitForGraph::DeadlockedThreads() const {
  // Fixpoint of "can make progress": a blocked thread progresses if an
  // external source can wake it or any of its wakers can progress. Runnable
  // threads seed the set; what never joins it is deadlocked.
  std::unordered_set<const Thread*> can_progress;
  for (const WaitEdge& e : edges_) {
    for (const Thread* w : e.wakers) {
      if (index_.find(w) == index_.end() && w->state() != Thread::State::kTerminated) {
        can_progress.insert(w);  // runnable (not blocked) waker
      }
    }
    if (e.external_wake) {
      can_progress.insert(e.thread);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const WaitEdge& e : edges_) {
      if (can_progress.count(e.thread) != 0) {
        continue;
      }
      for (const Thread* w : e.wakers) {
        if (can_progress.count(w) != 0) {
          can_progress.insert(e.thread);
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<const Thread*> deadlocked;
  for (const WaitEdge& e : edges_) {
    if (can_progress.count(e.thread) == 0) {
      deadlocked.push_back(e.thread);
    }
  }
  return deadlocked;
}

std::vector<std::vector<const Thread*>> WaitForGraph::FindCycles() const {
  const std::vector<const Thread*> deadlocked = DeadlockedThreads();
  const std::unordered_set<const Thread*> dead_set(deadlocked.begin(), deadlocked.end());

  // DFS over wait edges restricted to the deadlocked set; a path hitting a
  // thread already on the stack closes a cycle. Cycles are canonicalized
  // (rotated so the lowest-id thread leads) and de-duplicated.
  std::set<std::vector<const Thread*>> canonical;
  std::vector<const Thread*> path;
  std::unordered_set<const Thread*> on_path;

  auto waiters_of = [&](const Thread* t) {
    std::vector<const Thread*> next;
    const WaitEdge* e = EdgeFor(t);
    if (e != nullptr) {
      for (const Thread* w : e->wakers) {
        if (dead_set.count(w) != 0) {
          next.push_back(w);
        }
      }
    }
    return next;
  };

  std::function<void(const Thread*)> dfs = [&](const Thread* t) {
    path.push_back(t);
    on_path.insert(t);
    for (const Thread* next : waiters_of(t)) {
      if (on_path.count(next) != 0) {
        const auto start = std::find(path.begin(), path.end(), next);
        std::vector<const Thread*> cycle(start, path.end());
        auto lowest = std::min_element(cycle.begin(), cycle.end(),
                                       [](const Thread* a, const Thread* b) {
                                         return a->id() < b->id();
                                       });
        std::rotate(cycle.begin(), lowest, cycle.end());
        canonical.insert(std::move(cycle));
      } else {
        dfs(next);
      }
    }
    on_path.erase(t);
    path.pop_back();
  };
  for (const Thread* t : deadlocked) {
    dfs(t);
  }
  return {canonical.begin(), canonical.end()};
}

std::vector<std::string> WaitForGraph::FindCycleReports() const {
  std::vector<std::string> reports;
  for (const std::vector<const Thread*>& cycle : FindCycles()) {
    std::ostringstream os;
    for (size_t i = 0; i < cycle.size(); ++i) {
      const WaitEdge* e = EdgeFor(cycle[i]);
      os << ThreadLabel(cycle[i]) << " --[" << (e != nullptr ? e->detail : "?") << "]--> ";
    }
    os << ThreadLabel(cycle.front());
    reports.push_back(os.str());
  }
  return reports;
}

}  // namespace mk::analysis
