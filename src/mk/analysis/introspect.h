// Read-only access to the kernel's private object graph for the state
// analyzer (src/mk/analysis/). Kernel befriends exactly one class —
// Introspector — and the invariant checker and wait-for-graph builder go
// through it, so the surface the analyzer depends on is explicit and the
// kernel's own encapsulation stays intact everywhere else.
#ifndef SRC_MK_ANALYSIS_INTROSPECT_H_
#define SRC_MK_ANALYSIS_INTROSPECT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/mk/kernel.h"

namespace mk::analysis {

class Introspector {
 public:
  static const std::vector<std::unique_ptr<Task>>& tasks(const Kernel& k) { return k.tasks_; }
  static const std::vector<std::unique_ptr<Thread>>& threads(const Kernel& k) {
    return k.threads_;
  }
  static const std::vector<std::unique_ptr<Port>>& ports(const Kernel& k) { return k.ports_; }

  using RpcInFlight = Kernel::RpcInFlight;
  static const std::unordered_map<uint64_t, RpcInFlight>& rpc_waiters(const Kernel& k) {
    return k.rpc_waiters_;
  }

  using Semaphore = Kernel::Semaphore;
  static const std::unordered_map<uint32_t, Semaphore>& semaphores(const Kernel& k) {
    return k.semaphores_;
  }
  static const std::unordered_map<uint64_t, WaitQueue>& memsync_waiters(const Kernel& k) {
    return k.memsync_waiters_;
  }

  using InterruptBinding = Kernel::InterruptBinding;
  static const std::unordered_map<uint32_t, InterruptBinding>& interrupt_bindings(
      const Kernel& k) {
    return k.interrupt_bindings_;
  }

  static uint64_t rpc_calls(const Kernel& k) { return k.rpc_calls_; }
  static uint64_t mach_msgs(const Kernel& k) { return k.mach_msgs_; }

  // Mutable counter snapshots for the monotonicity invariant (the checker is
  // const; the snapshots are mutable members of Kernel).
  static uint64_t& last_rpc_calls(const Kernel& k) { return k.last_rpc_calls_; }
  static uint64_t& last_mach_msgs(const Kernel& k) { return k.last_mach_msgs_; }
  static std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>>& last_port_counters(
      const Kernel& k) {
    return k.last_port_counters_;
  }
};

}  // namespace mk::analysis

#endif  // SRC_MK_ANALYSIS_INTROSPECT_H_
