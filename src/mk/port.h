// Ports and port spaces.
//
// A port is a kernel message/RPC endpoint. Rights to ports are capabilities:
// they live in a task's port space and are named by small task-local
// integers, exactly as in Mach 3.0. The same Port object backs both the
// legacy queued IPC (mach_msg) and the reworked synchronous RPC.
#ifndef SRC_MK_PORT_H_
#define SRC_MK_PORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "src/base/status.h"
#include "src/hw/types.h"
#include "src/mk/ids.h"
#include "src/mk/message.h"
#include "src/mk/wait_queue.h"

namespace mk {

class Task;
class Thread;

class Port {
 public:
  Port(uint64_t id, hw::PhysAddr sim_addr) : id_(id), sim_addr_(sim_addr) {}

  uint64_t id() const { return id_; }
  hw::PhysAddr sim_addr() const { return sim_addr_; }

  Task* receiver() const { return receiver_; }
  void set_receiver(Task* task) { receiver_ = task; }
  bool dead() const { return dead_; }
  void MarkDead() {
    dead_ = true;
    receiver_ = nullptr;
  }

  // --- Legacy IPC queue -------------------------------------------------------
  static constexpr size_t kDefaultQueueLimit = 5;
  std::deque<std::unique_ptr<QueuedMessage>> queue;
  size_t queue_limit = kDefaultQueueLimit;
  WaitQueue blocked_senders;    // threads waiting for queue space
  WaitQueue blocked_receivers;  // threads waiting for a message

  // --- RPC rendezvous -----------------------------------------------------------
  std::deque<Thread*> waiting_servers;  // threads parked in RpcReceive
  std::deque<Thread*> waiting_clients;  // callers with no server available
  // Admission bound on waiting_clients: callers past the limit are shed with
  // kBusy instead of parking. 0 (the default) keeps the queue unbounded, so
  // existing workloads and the committed bench references are untouched.
  uint32_t rpc_queue_limit = 0;

  uint64_t send_count = 0;
  uint64_t rpc_count = 0;

 private:
  uint64_t id_;
  hw::PhysAddr sim_addr_;
  Task* receiver_ = nullptr;
  bool dead_ = false;
};

struct PortRight {
  Port* port = nullptr;
  RightType type = RightType::kSend;
  uint32_t refs = 1;
};

// Per-task capability table: name -> right.
class PortSpace {
 public:
  explicit PortSpace(hw::PhysAddr sim_addr) : sim_addr_(sim_addr) {}

  hw::PhysAddr sim_addr() const { return sim_addr_; }
  size_t size() const { return rights_.size(); }

  // Inserts a right, coalescing send rights to the same port under one name
  // (Mach semantics). Receive and send-once rights always get fresh names.
  PortName Insert(Port* port, RightType type);

  base::Result<PortRight*> Lookup(PortName name);
  // Lookup requiring the right to permit sending (send or send-once).
  base::Result<Port*> LookupSendable(PortName name);
  base::Result<Port*> LookupReceive(PortName name);

  // Drops one reference; removes the entry when it reaches zero.
  base::Status Release(PortName name);

  // Iterates every right in the space (kernel state analyzer, diagnostics).
  void ForEachRight(const std::function<void(PortName, const PortRight&)>& fn) const;

 private:
  hw::PhysAddr sim_addr_;
  std::unordered_map<PortName, PortRight> rights_;
  std::unordered_map<Port*, PortName> send_names_;
  PortName next_name_ = 1;
};

}  // namespace mk

#endif  // SRC_MK_PORT_H_
