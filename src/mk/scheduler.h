// Priority scheduler over green threads (context.h's stack switch).
//
// The scheduler runs in the "kernel main" context; threads swap back to it
// whenever they block, yield, or are preempted at a kernel entry. Direct
// handoff (SwitchTo) transfers the CPU straight to a named thread — the
// optimization the reworked RPC relies on.
//
// Every dispatch charges the modelled context-switch cost, including the
// pmap activation and TLB flush when the incoming thread belongs to a
// different task.
#ifndef SRC_MK_SCHEDULER_H_
#define SRC_MK_SCHEDULER_H_

#include <array>
#include <deque>
#include <vector>

#include "src/mk/context.h"

#include "src/mk/sync_observer.h"
#include "src/mk/thread.h"

namespace mk {

class Kernel;
class Task;

// Hook by which the schedule-space explorer (src/mk/analysis/explore/) takes
// control of dispatch decisions. With no policy installed the scheduler's
// behaviour is exactly the stock priority scan — the policy path is never
// entered, so the disabled case is byte-identical.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  // Dispatch decision. `candidates` lists every runnable thread in the stock
  // scheduler's scan order (priority high to low, FIFO within a priority);
  // `natural` is the index the stock
  // scheduler would pick (the handoff hint when one is pending, else the
  // front of the scan). `previous` ran before this decision (nullptr at
  // boot); `reason` is why it stopped. Returns the index to dispatch.
  virtual size_t PickIndex(const std::vector<Thread*>& candidates, size_t natural,
                           Thread* previous, SwitchReason reason) = 0;

  // Kernel-entry preemption point. `candidates` is `current` followed by all
  // runnable threads in scan order. Returning `current` means no preemption
  // — the thread continues with no context switch and no cost charged;
  // returning another candidate forces a preemptive switch to it.
  virtual Thread* OnPreemptPoint(Thread* current, const std::vector<Thread*>& candidates) = 0;
};

class Scheduler {
 public:
  explicit Scheduler(Kernel* kernel) : kernel_(kernel) {}

  Thread* current() const { return current_; }

  // Main loop: dispatches ready threads until none are ready and no machine
  // event can make one ready. Called once by Kernel::Run.
  void Run();

  // --- Called from inside a running thread -----------------------------------
  // Give up the CPU but stay ready.
  void Yield();
  // Block the current thread on `queue` (optional) until woken.
  // Returns the thread's wait_status (kOk, kTimedOut, kAborted).
  base::Status Block(Thread::State reason_unused, WaitQueue* queue);
  // Block, then hand the CPU directly to `next` (which must be ready).
  base::Status BlockAndHandoff(WaitQueue* queue, Thread* next);
  // Stay runnable but hand the CPU directly to `next`.
  void HandoffTo(Thread* next);
  // Terminate the current thread; does not return.
  [[noreturn]] void ExitCurrent();

  // --- Called from anywhere ----------------------------------------------------
  void MakeReady(Thread* t);
  void Wake(Thread* t, base::Status wait_status);
  void StartThread(Thread* t);  // embryo -> ready

  // --- Schedule-space exploration ----------------------------------------------
  // Installs (or clears, with nullptr) the dispatch policy. Host-side only;
  // with no policy every dispatch runs the stock scan unchanged.
  void set_policy(SchedulePolicy* policy) { policy_ = policy; }
  SchedulePolicy* policy() const { return policy_; }
  // Kernel-entry preemption point (called by Kernel::EnterKernel): consults
  // the policy, which may force a preemptive switch to another runnable
  // thread. A single null test when no policy is installed.
  void PreemptPoint();

  uint64_t context_switches() const { return context_switches_; }
  uint64_t address_space_switches() const { return space_switches_; }

  // Timeslice in cycles; a thread that has been on-CPU longer than this is
  // preempted at its next kernel entry.
  static constexpr uint64_t kQuantumCycles = 1'000'000;

  // Ablation knob: with direct handoff disabled, RPC rendezvous go through
  // the ordinary ready queue (wake + full dispatch) instead of switching
  // straight to the peer.
  bool handoff_enabled = true;

 private:
  friend class Kernel;

  Thread* PickNext();
  Thread* PickNextWithPolicy();
  SyncObserver* observer() const;
  // Switch from the scheduler context into `t`.
  void SwitchInto(Thread* t);
  // Called in thread context: swap back to the scheduler context. `final`
  // marks the thread as never resuming (termination path).
  void SwapOut(bool final = false);
  static void Trampoline();

  Kernel* kernel_;
  SchedulePolicy* policy_ = nullptr;
  Thread* last_running_ = nullptr;  // thread that most recently gave up the CPU
  SwitchReason last_reason_ = SwitchReason::kFirst;
  Thread* current_ = nullptr;
  Thread* handoff_hint_ = nullptr;
  bool handoff_was_hint_ = false;
  Task* last_task_ = nullptr;  // address space currently "live" on the CPU
  std::array<std::deque<Thread*>, Thread::kNumPriorities> ready_;
  size_t ready_count_ = 0;
  void* main_ctx_sp_ = nullptr;
  uint64_t context_switches_ = 0;
  uint64_t space_switches_ = 0;
  bool running_ = false;
};

}  // namespace mk

#endif  // SRC_MK_SCHEDULER_H_
