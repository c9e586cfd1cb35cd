// Wait-for-graph deadlock detector.
//
// Build() classifies every blocked thread (why is it blocked, on which
// object) and records which threads could wake it — OR semantics: an edge's
// wakers is a set and any one of them making progress suffices, so a
// multi-threaded server task never looks deadlocked just because one of its
// threads is. DeadlockedThreads() is the fixpoint of "can make progress"
// (runnable threads and external wake sources — timed sleeps, reflected
// interrupts — seed the set); FindCycleReports() renders each wait cycle in
// the deadlocked set as a human-readable thread -> port -> task chain.
#ifndef SRC_MK_ANALYSIS_WAIT_FOR_GRAPH_H_
#define SRC_MK_ANALYSIS_WAIT_FOR_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace mk {
class Kernel;
class Port;
class Thread;
}  // namespace mk

namespace mk::analysis {

enum class WaitKind {
  kNotBlocked,
  kRpcAwaitingServer,  // parked in Port::waiting_clients, no server available
  kRpcAwaitingReply,   // request delivered; awaiting RpcReply (rpc_waiters_)
  kRpcReceive,         // parked in Port::waiting_servers, no caller
  kIpcSendFull,        // legacy send blocked on a full queue
  kIpcReceiveEmpty,    // legacy receive blocked on an empty queue
  kSemaphore,
  kMemSync,
  kSleepOrExternal,  // timed sleep or an unrecognized external wait
};

struct WaitEdge {
  const Thread* thread = nullptr;
  WaitKind kind = WaitKind::kNotBlocked;
  const Port* port = nullptr;  // the port involved, when there is one
  // Threads whose progress could unblock this one; any single waker making
  // progress suffices. Empty with external_wake false means nothing in the
  // system can ever wake the thread.
  std::vector<const Thread*> wakers;
  bool external_wake = false;  // a timed wake or reflected interrupt can wake it
  std::string detail;          // human-readable description of the wait
};

class WaitForGraph {
 public:
  static WaitForGraph Build(const Kernel& kernel);

  // Null for threads that are not blocked.
  const WaitEdge* EdgeFor(const Thread* t) const;
  // "thread 'x' (task 'a'): <why it is blocked>"
  std::string DescribeBlocked(const Thread* t) const;

  // Blocked threads no chain of wakes can ever reach.
  std::vector<const Thread*> DeadlockedThreads() const;
  // Distinct wait cycles within the deadlocked set.
  std::vector<std::vector<const Thread*>> FindCycles() const;
  // One rendered report per cycle, e.g.
  //   thread 'a' (task 'A') --[awaiting RPC reply via port 2]--> thread 'b'
  //   (task 'B') --[waiting for a server on port 1]--> thread 'a' (task 'A')
  std::vector<std::string> FindCycleReports() const;

 private:
  std::vector<WaitEdge> edges_;
  std::unordered_map<const Thread*, size_t> index_;
};

}  // namespace mk::analysis

#endif  // SRC_MK_ANALYSIS_WAIT_FOR_GRAPH_H_
