// Hybrid lockset + vector-clock data-race detector over simulated memory.
//
// Works at scheduling-step granularity: the cooperative simulator only
// switches threads at kernel entries and blocking points, so execution
// between two dispatch decisions is atomic and the detector's job is to find
// pairs of conflicting accesses in *different* steps of *different* threads
// that are neither ordered by a happens-before edge (vector clocks over the
// kernel's synchronizers: semaphores, port/channel transfers, RPC
// rendezvous, explicit wakes, thread creation) nor consistently protected
// by a common lock (Eraser-style locksets over semaphores used as mutexes,
// plus the implicit big kernel lock for accesses made between
// EnterKernel/LeaveKernel brackets).
//
// All bookkeeping is host-side: no simulated cycles are charged. Containers
// are ordered (std::map/std::set) so reports come out in a deterministic
// order regardless of allocation history.
#ifndef SRC_MK_ANALYSIS_EXPLORE_RACE_DETECTOR_H_
#define SRC_MK_ANALYSIS_EXPLORE_RACE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mk::analysis::explore {

// The implicit lock modelling the atomicity of kernel sections: any access
// made while the thread is inside an EnterKernel/LeaveKernel bracket holds
// it, so kernel-structure traffic never races with kernel-structure traffic.
constexpr uint64_t kKernelLock = ~0ull;

using VectorClock = std::map<uint64_t, uint64_t>;  // thread id -> clock

struct RaceReport {
  uint64_t cell = 0;  // simulated physical address >> 4
  uint64_t first_thread = 0;
  std::string first_op;
  bool first_write = false;
  uint64_t second_thread = 0;
  std::string second_op;
  bool second_write = false;
  std::string Describe() const;
};

class RaceDetector {
 public:
  // Per-run reset: clears clocks, shadow memory, and pending reports (the
  // monitor re-reports per run; the explorer dedupes across runs).
  void Reset();

  // --- Happens-before edges --------------------------------------------------
  void ThreadCreate(uint64_t parent, uint64_t child);
  // Release half: the channel absorbs the sender's clock.
  void ChannelRelease(uint64_t chan, uint64_t tid);
  // Acquire half: the receiver absorbs the channel's clock.
  void ChannelAcquire(uint64_t chan, uint64_t tid);
  // Direct edge from -> to (RPC rendezvous, wake).
  void DirectEdge(uint64_t from, uint64_t to);

  // --- Locksets ----------------------------------------------------------------
  void Acquire(uint64_t tid, uint64_t lock);
  void Release(uint64_t tid, uint64_t lock);
  bool Holds(uint64_t tid, uint64_t lock) const;

  // --- Accesses ----------------------------------------------------------------
  // `op` labels the access site for the report (the nearest kernel operation
  // or "user"); `in_kernel` adds the implicit kernel lock.
  void Access(uint64_t tid, uint64_t cell, bool write, const std::string& op, bool in_kernel);

  const std::vector<RaceReport>& races() const { return races_; }
  void set_thread_name(uint64_t tid, const std::string& name) { names_[tid] = name; }
  const std::map<uint64_t, std::string>& thread_names() const { return names_; }

 private:
  struct AccessRecord {
    uint64_t tid = 0;
    uint64_t clock = 0;  // accessor's own component at access time
    std::set<uint64_t> locks;
    std::string op;
  };
  struct Shadow {
    AccessRecord last_write;
    bool has_write = false;
    std::map<uint64_t, AccessRecord> reads;  // by thread id
  };

  VectorClock& ClockOf(uint64_t tid);
  // True when `rec` happened-before thread `tid`'s current point.
  bool OrderedBefore(const AccessRecord& rec, uint64_t tid);
  void Report(const AccessRecord& prev, bool prev_write, uint64_t tid, uint64_t cell, bool write,
              const std::string& op, const std::set<uint64_t>& locks);

  std::map<uint64_t, VectorClock> clocks_;
  std::map<uint64_t, VectorClock> channels_;
  std::map<uint64_t, std::set<uint64_t>> held_;
  std::map<uint64_t, Shadow> shadow_;
  std::map<uint64_t, std::string> names_;
  std::set<std::string> reported_;  // dedup key: cell + both ops
  std::vector<RaceReport> races_;
};

}  // namespace mk::analysis::explore

#endif  // SRC_MK_ANALYSIS_EXPLORE_RACE_DETECTOR_H_
