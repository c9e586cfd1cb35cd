// Kernel object-graph invariant checker.
//
// Walks every task, thread, port, port space, wait queue and in-flight RPC
// and verifies the structural invariants the kernel relies on but never
// re-checks on its hot paths (those are WPOS_DCHECKs). Run from
// Kernel::CheckInvariants(): after every test via the fixture, on Halt, and
// optionally every N kernel entries (KernelConfig::invariant_check_interval).
#ifndef SRC_MK_ANALYSIS_INVARIANTS_H_
#define SRC_MK_ANALYSIS_INVARIANTS_H_

#include <string>
#include <vector>

namespace mk {
class Kernel;
}

namespace mk::analysis {

// Returns one human-readable description per violated invariant; empty means
// the object graph is consistent. Checked invariants:
//   - every port right names a port the kernel owns, with refs >= 1
//   - dead ports are fully detached: empty message queue, no blocked or
//     rendezvous waiters, no receiver task
//   - every port honours queue.size() <= queue_limit
//   - a kBlocked thread sits on exactly the wait queue named by waiting_on
//     (or none for RPC/sleep blocks); no other state appears on any queue,
//     and no thread appears on two queues at once
//   - rpc_waiters_ entries name a live blocked client whose token matches,
//     and a distinct server thread
//   - task <-> thread membership is consistent both ways
//   - kernel-wide and per-port message counters are monotone between checks
std::vector<std::string> CollectViolations(const Kernel& kernel);

}  // namespace mk::analysis

#endif  // SRC_MK_ANALYSIS_INVARIANTS_H_
