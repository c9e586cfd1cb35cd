// Synchronizers and clocks (paper: "Mach 3.0 also had no notion of
// synchronization other than that which can be constructed using the IPC
// system. Since this was too expensive ... we implemented a comprehensive set
// of synchronizers including both memory- and kernel-based locks and
// semaphores", plus "a much more extensive time management component").
// Modelled: kernel semaphores, memory-based (futex-style) waits, the
// current time, timed sleeps and the deadline behind every timeout. The
// time manager's periodic timers are not: no program here arms one.
#include "src/base/log.h"
#include "src/mk/kernel.h"

namespace mk {

namespace {
const hw::CodeRegion& TrapEntry() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.entry", Costs::kTrapEntry);
  return r;
}
const hw::CodeRegion& SemFastRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sync.sem_fast", Costs::kSemaphoreFast);
  return r;
}
const hw::CodeRegion& SemBlockRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sync.sem_block", Costs::kSemaphoreBlock);
  return r;
}
const hw::CodeRegion& MemSyncUserRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("ustub.memsync_fast", Costs::kMemSyncUserFast);
  return r;
}
const hw::CodeRegion& MemSyncKernelRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.sync.memsync_wait", Costs::kMemSyncKernelWait);
  return r;
}
const hw::CodeRegion& ClockRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.clock.get_time", Costs::kClockGetTime);
  return r;
}
const hw::CodeRegion& TimerArmRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.clock.timer_arm", Costs::kTimerArm);
  return r;
}
}  // namespace

// --- Timed wakes ------------------------------------------------------------------

void Kernel::StartTimedWake(Thread* t, uint64_t timeout_ns) {
  if (timeout_ns == kForever) {
    return;
  }
  const uint64_t generation = t->wake_generation;
  const hw::Cycles deadline = cpu().cycles() + cpu().NsToCycles(timeout_ns);
  machine_->ScheduleAt(deadline, [this, t, generation] {
    if (t->wake_generation == generation && t->state() == Thread::State::kBlocked) {
      scheduler_.Wake(t, base::Status::kTimedOut);
    }
  });
}

// --- Kernel semaphores ----------------------------------------------------------------

base::Result<uint32_t> Kernel::SemCreate(uint32_t initial) {
  const base::Result<hw::PhysAddr> sim_addr = heap_->TryAllocate(64);
  if (!sim_addr.ok()) {
    return sim_addr.status();
  }
  const uint32_t id = next_sem_id_++;
  Semaphore sem;
  sem.count = initial;
  sem.sim_addr = *sim_addr;
  semaphores_.emplace(id, std::move(sem));
  return id;
}

base::Status Kernel::SemWait(uint32_t sem_id, uint64_t timeout_ns) {
  Thread* t = scheduler_.current();
  WPOS_CHECK(t != nullptr) << "SemWait outside thread context";
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(t, "SemWait", sem_id);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(SemFastRegion());
  auto it = semaphores_.find(sem_id);
  if (it == semaphores_.end() || !it->second.alive) {
    LeaveKernel();
    return base::Status::kNotFound;
  }
  // The reference stays valid across the blocking points below (unordered_map
  // elements survive rehash); the iterator would not — a concurrent SemCreate
  // while this thread is blocked can rehash the table — so everything after
  // the first Block goes through `sem`, never back through `it`.
  Semaphore& sem = it->second;
  cpu().AccessData(sem.sim_addr, 8, /*write=*/true);
  while (sem.count == 0) {
    cpu().Execute(SemBlockRegion());
    StartTimedWake(t, timeout_ns);
    const base::Status st = scheduler_.Block(Thread::State::kBlocked, &sem.waiters);
    if (st != base::Status::kOk) {
      LeaveKernel();
      return st;
    }
    if (!sem.alive) {
      LeaveKernel();
      return base::Status::kAborted;
    }
  }
  --sem.count;
  if (sync_observer_ != nullptr) {
    sync_observer_->OnSemAcquired(sem_id, t);
  }
  LeaveKernel();
  return base::Status::kOk;
}

base::Status Kernel::SemSignal(uint32_t sem_id) {
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(scheduler_.current(), "SemSignal", sem_id);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(SemFastRegion());
  auto it = semaphores_.find(sem_id);
  if (it == semaphores_.end() || !it->second.alive) {
    LeaveKernel();
    return base::Status::kNotFound;
  }
  Semaphore& sem = it->second;
  cpu().AccessData(sem.sim_addr, 8, /*write=*/true);
  ++sem.count;
  if (sync_observer_ != nullptr) {
    sync_observer_->OnSemSignal(sem_id, scheduler_.current());
  }
  if (Thread* waiter = sem.waiters.DequeueFront()) {
    waiter->waiting_on = nullptr;
    scheduler_.Wake(waiter, base::Status::kOk);
  }
  LeaveKernel();
  return base::Status::kOk;
}

base::Status Kernel::SemDestroy(uint32_t sem_id) {
  auto it = semaphores_.find(sem_id);
  if (it == semaphores_.end() || !it->second.alive) {
    return base::Status::kNotFound;
  }
  if (sync_observer_ != nullptr) {
    sync_observer_->OnGlobalOp(scheduler_.current());
  }
  it->second.alive = false;
  while (Thread* waiter = it->second.waiters.DequeueFront()) {
    waiter->waiting_on = nullptr;
    scheduler_.Wake(waiter, base::Status::kAborted);
  }
  return base::Status::kOk;
}

// --- Memory-based synchronizers ------------------------------------------------------------

base::Status Kernel::MemSyncWait(hw::VirtAddr addr, uint32_t expected, uint64_t timeout_ns) {
  Thread* t = scheduler_.current();
  WPOS_CHECK(t != nullptr) << "MemSyncWait outside thread context";
  Task& task = *t->task();
  // User-level fast path: an atomic compare in shared memory.
  cpu().Execute(MemSyncUserRegion());
  auto pa = ResolveForAccess(task, addr, /*write=*/false);
  if (!pa.ok()) {
    return pa.status();
  }
  AccessUser(task, addr, *pa, 4, /*write=*/false);
  const uint32_t value = machine_->mem().ReadU32(*pa);
  if (value != expected) {
    return base::Status::kOk;  // condition already changed; no kernel entry
  }
  // Slow path: park in the kernel keyed by the physical word, so waiters in
  // different address spaces sharing the page (coerced memory) rendezvous.
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(t, "MemSyncWait", *pa & ~3ull);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(MemSyncKernelRegion());
  WaitQueue& queue = memsync_waiters_[*pa & ~3ull];
  StartTimedWake(t, timeout_ns);
  const base::Status st = scheduler_.Block(Thread::State::kBlocked, &queue);
  if (st == base::Status::kOk && sync_observer_ != nullptr) {
    sync_observer_->OnChannelRecv(*pa & ~3ull, t);
  }
  LeaveKernel();
  return st;
}

uint32_t Kernel::MemSyncWake(hw::VirtAddr addr, uint32_t count) {
  Thread* t = scheduler_.current();
  WPOS_CHECK(t != nullptr) << "MemSyncWake outside thread context";
  cpu().Execute(MemSyncUserRegion());
  auto pa = ResolveForAccess(*t->task(), addr, /*write=*/false);
  if (!pa.ok()) {
    return 0;
  }
  auto it = memsync_waiters_.find(*pa & ~3ull);
  if (it == memsync_waiters_.end() || it->second.empty()) {
    return 0;  // nobody parked: pure user-level operation
  }
  // EnterKernel is a scheduling point under exploration: another thread may
  // run MemSyncWait and rehash the table before we resume, invalidating the
  // iterator. The element reference is stable, so hold that instead.
  WaitQueue* queue = &it->second;
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(t, "MemSyncWake", *pa & ~3ull);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(MemSyncKernelRegion());
  if (sync_observer_ != nullptr) {
    sync_observer_->OnChannelSend(*pa & ~3ull, t);
  }
  uint32_t woken = 0;
  while (woken < count) {
    Thread* waiter = queue->DequeueFront();
    if (waiter == nullptr) {
      break;
    }
    waiter->waiting_on = nullptr;
    scheduler_.Wake(waiter, base::Status::kOk);
    ++woken;
  }
  LeaveKernel();
  return woken;
}

// --- Clocks --------------------------------------------------------------------------------------

uint64_t Kernel::NowNs() {
  cpu().Execute(ClockRegion());
  return cpu().CyclesToNs(cpu().cycles());
}

base::Status Kernel::SleepNs(uint64_t ns) {
  Thread* t = scheduler_.current();
  WPOS_CHECK(t != nullptr) << "SleepNs outside thread context";
  EnterKernel(TrapEntry());
  cpu().Execute(TimerArmRegion());
  StartTimedWake(t, ns);
  const base::Status st = scheduler_.Block(Thread::State::kBlocked, nullptr);
  LeaveKernel();
  return st == base::Status::kTimedOut ? base::Status::kOk : st;
}

base::Status Kernel::StallForever() {
  Thread* t = scheduler_.current();
  WPOS_CHECK(t != nullptr) << "StallForever outside thread context";
  // No timed wake: nothing in the simulation ever wakes this thread except
  // an abort (TerminateTask). This is the kStallTask fault mode's wedge —
  // the thread holds whatever it holds and stops making progress.
  return scheduler_.Block(Thread::State::kBlocked, nullptr);
}

}  // namespace mk
