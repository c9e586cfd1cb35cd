#include "src/mk/scheduler.h"

#include "src/base/log.h"
#include "src/mk/kernel.h"
#include "src/mk/task.h"

namespace mk {

namespace {
// The scheduler currently executing Run(); the trampoline needs it because
// makecontext cannot carry a pointer portably.
Scheduler* g_active_scheduler = nullptr;

const hw::CodeRegion& PickRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sched.pick", Costs::kSchedPickThread);
  return r;
}
const hw::CodeRegion& SwitchRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sched.switch", Costs::kSchedContextSwitch);
  return r;
}
const hw::CodeRegion& HandoffRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sched.handoff", Costs::kSchedHandoff);
  return r;
}
const hw::CodeRegion& PmapRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sched.pmap_activate", Costs::kPmapActivate);
  return r;
}
}  // namespace

SyncObserver* Scheduler::observer() const { return kernel_->sync_observer_; }

void Scheduler::MakeReady(Thread* t) {
  WPOS_DCHECK(t != nullptr);
  if (t->state() == Thread::State::kReady || t->state() == Thread::State::kRunning) {
    return;
  }
  WPOS_CHECK(t->state() != Thread::State::kTerminated) << "waking dead thread " << t->name();
  t->set_state(Thread::State::kReady);
  t->waiting_on = nullptr;
  ready_[t->priority()].push_back(t);
  ++ready_count_;
}

void Scheduler::Wake(Thread* t, base::Status wait_status) {
  if (t->state() != Thread::State::kBlocked) {
    return;
  }
  if (t->waiting_on != nullptr) {
    t->waiting_on->Remove(t);
    t->waiting_on = nullptr;
  }
  ++t->wake_generation;  // invalidate any pending timed wake
  t->wait_status = wait_status;
  if (SyncObserver* obs = observer()) {
    obs->OnWake(current_, t);
  }
  MakeReady(t);
}

void Scheduler::StartThread(Thread* t) {
  WPOS_CHECK(t->state() == Thread::State::kEmbryo);
  MakeReady(t);
}

Thread* Scheduler::PickNext() {
  if (policy_ != nullptr) {
    return PickNextWithPolicy();
  }
  // Direct handoff takes precedence; the hint must still be runnable.
  if (handoff_hint_ != nullptr) {
    Thread* hint = handoff_hint_;
    handoff_hint_ = nullptr;
    if (hint->state() == Thread::State::kReady) {
      auto& q = ready_[hint->priority()];
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == hint) {
          q.erase(it);
          --ready_count_;
          return hint;
        }
      }
    }
  }
  for (int prio = Thread::kNumPriorities - 1; prio >= 0; --prio) {
    auto& q = ready_[prio];
    if (!q.empty()) {
      Thread* t = q.front();
      q.pop_front();
      --ready_count_;
      return t;
    }
  }
  return nullptr;
}

// Policy-driven dispatch: enumerate every runnable thread in the stock scan
// order and let the policy choose. The stock scheduler's decision — handoff
// hint if pending and runnable, else the scan front — is passed through as
// the `natural` index so a policy can reproduce default behaviour exactly.
Thread* Scheduler::PickNextWithPolicy() {
  Thread* hint = handoff_hint_;
  handoff_hint_ = nullptr;
  std::vector<Thread*> candidates;
  candidates.reserve(ready_count_);
  for (int prio = Thread::kNumPriorities - 1; prio >= 0; --prio) {
    candidates.insert(candidates.end(), ready_[prio].begin(), ready_[prio].end());
  }
  if (candidates.empty()) {
    handoff_was_hint_ = false;
    return nullptr;
  }
  size_t natural = 0;
  if (hint != nullptr && hint->state() == Thread::State::kReady) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i] == hint) {
        natural = i;
        break;
      }
    }
  }
  const size_t idx = policy_->PickIndex(candidates, natural, last_running_, last_reason_);
  WPOS_CHECK(idx < candidates.size()) << "schedule policy picked candidate " << idx << " of "
                                      << candidates.size();
  Thread* chosen = candidates[idx];
  handoff_was_hint_ = hint != nullptr && chosen == hint;
  auto& q = ready_[chosen->priority()];
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (*it == chosen) {
      q.erase(it);
      break;
    }
  }
  --ready_count_;
  return chosen;
}

void Scheduler::PreemptPoint() {
  if (policy_ == nullptr || current_ == nullptr || ready_count_ == 0) {
    return;
  }
  std::vector<Thread*> candidates;
  candidates.reserve(ready_count_ + 1);
  candidates.push_back(current_);
  for (int prio = Thread::kNumPriorities - 1; prio >= 0; --prio) {
    candidates.insert(candidates.end(), ready_[prio].begin(), ready_[prio].end());
  }
  Thread* next = policy_->OnPreemptPoint(current_, candidates);
  if (next == current_) {
    return;  // no preemption: continue with no switch and no cost
  }
  // Forced preemption: like quantum expiry, but the policy names the heir.
  Thread* self = current_;
  kernel_->tracer().Emit(trace::EventType::kSchedPreempt, next->id(), self->id());
  last_reason_ = SwitchReason::kPreempt;
  last_running_ = self;
  handoff_hint_ = next;
  self->set_state(Thread::State::kReady);
  ready_[self->priority()].push_back(self);
  ++ready_count_;
  SwapOut();
}

void Scheduler::Trampoline() {
  WposCtxFiberEntry();
  Scheduler* sched = g_active_scheduler;
  Thread* self = sched->current_;
  self->entry_();
  sched->ExitCurrent();
}

void Scheduler::SwitchInto(Thread* t) {
  WPOS_CHECK(current_ == nullptr) << "SwitchInto from a thread context (into " << t->name()
                                  << ")";
  hw::Cpu& cpu = kernel_->cpu();
  const bool handoff = handoff_was_hint_;
  handoff_was_hint_ = false;
  cpu.Execute(handoff ? HandoffRegion() : SwitchRegion());
  cpu.Stall(Costs::kContextSwitchStallCycles);
  // Touch the incoming thread control block and its stack-save area.
  cpu.AccessData(t->sim_addr(), 64, /*write=*/true);
  ++context_switches_;

  if (t->task() != last_task_) {
    ++space_switches_;
    cpu.Execute(PmapRegion());
    cpu.AccessData(t->task()->sim_addr(), 32, /*write=*/false);
    cpu.FlushTlb();
    cpu.Stall(Costs::kSpaceSwitchRefillCycles);
    cpu.BusTransactions(Costs::kSpaceSwitchRefillBus);
    last_task_ = t->task();
  }

  current_ = t;
  t->set_state(Thread::State::kRunning);
  t->dispatch_cycle = cpu.cycles();
  // Emitted with current_ already switched so the event carries the incoming
  // thread's identity.
  kernel_->tracer().Emit(trace::EventType::kThreadSwitch, t->id(), handoff ? 1 : 0);
  if (SyncObserver* obs = observer()) {
    obs->OnSwitch(t, last_reason_);
  }

  if (!t->started_) {
    t->started_ = true;
    t->ctx_sp_ = WposCtxMake(t->stack_ + t->stack_bytes_, &Scheduler::Trampoline);
  }
  WposCtxSwitchToFiber(&main_ctx_sp_, t->ctx_sp_, t->stack_, t->stack_bytes_);
  current_ = nullptr;  // back in the scheduler
}

void Scheduler::SwapOut(bool final) {
  Thread* self = current_;
  WPOS_CHECK(self != nullptr) << "SwapOut outside thread context";
  WposCtxSwitchToMain(&self->ctx_sp_, main_ctx_sp_, final);
  WPOS_CHECK(current_ == self) << "context resumed under wrong current thread";
}

void Scheduler::Run() {
  WPOS_CHECK(!running_) << "scheduler re-entered";
  WPOS_CHECK(current_ == nullptr) << "Run called from a thread context";
  running_ = true;
  Scheduler* prev_active = g_active_scheduler;
  g_active_scheduler = this;
  while (true) {
    kernel_->PollHardware();
    kernel_->cpu().Execute(PickRegion());
    Thread* next = PickNext();
    if (next == nullptr) {
      if (kernel_->machine().IdleAdvance()) {
        continue;  // a device event may have readied someone
      }
      break;
    }
    SwitchInto(next);
  }
  g_active_scheduler = prev_active;
  running_ = false;
}

void Scheduler::Yield() {
  Thread* self = current_;
  WPOS_CHECK(self != nullptr) << "Yield outside thread context";
  last_reason_ = SwitchReason::kYield;
  last_running_ = self;
  self->set_state(Thread::State::kReady);
  ready_[self->priority()].push_back(self);
  ++ready_count_;
  SwapOut();
}

base::Status Scheduler::Block(Thread::State, WaitQueue* queue) {
  Thread* self = current_;
  WPOS_DCHECK(self != nullptr) << "Block outside thread context";
  last_reason_ = SwitchReason::kBlock;
  last_running_ = self;
  self->set_state(Thread::State::kBlocked);
  self->wait_status = base::Status::kOk;
  if (queue != nullptr) {
    queue->Enqueue(self);
    self->waiting_on = queue;
  }
  SwapOut();
  return self->wait_status;
}

base::Status Scheduler::BlockAndHandoff(WaitQueue* queue, Thread* next) {
  WPOS_DCHECK(next == nullptr || next->state() == Thread::State::kReady);
  if (handoff_enabled) {
    handoff_hint_ = next;
    handoff_was_hint_ = next != nullptr;
  }
  return Block(Thread::State::kBlocked, queue);
}

void Scheduler::HandoffTo(Thread* next) {
  Thread* self = current_;
  WPOS_CHECK(self != nullptr);
  WPOS_CHECK(next->state() == Thread::State::kReady);
  if (handoff_enabled) {
    handoff_hint_ = next;
    handoff_was_hint_ = true;
  }
  last_reason_ = SwitchReason::kYield;
  last_running_ = self;
  self->set_state(Thread::State::kReady);
  ready_[self->priority()].push_back(self);
  ++ready_count_;
  SwapOut();
}

void Scheduler::ExitCurrent() {
  Thread* self = current_;
  WPOS_CHECK(self != nullptr);
  kernel_->tracer().Emit(trace::EventType::kThreadExit, self->id());
  if (SyncObserver* obs = observer()) {
    obs->OnThreadExit(self);
  }
  last_reason_ = SwitchReason::kExit;
  last_running_ = self;
  self->set_state(Thread::State::kTerminated);
  SwapOut(/*final=*/true);
  WPOS_CHECK(false) << "terminated thread resumed";
  __builtin_unreachable();
}

}  // namespace mk
