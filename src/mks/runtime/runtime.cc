#include "src/mks/runtime/runtime.h"

#include "src/base/log.h"

namespace mks {

namespace {
const hw::CodeRegion& MutexFastRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.rt.mutex_fast", 22);
  return r;
}
const hw::CodeRegion& HeapRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.rt.heap", 160);
  return r;
}
}  // namespace

SyncArena::SyncArena(mk::Kernel& kernel, mk::Task& task) : kernel_(kernel), task_(task) {
  auto addr = kernel_.VmAllocate(task_, hw::kPageSize);
  WPOS_CHECK(addr.ok());
  base_ = *addr;
  capacity_ = hw::kPageSize / 4;
}

hw::VirtAddr SyncArena::AllocWord() {
  WPOS_CHECK(used_ < capacity_) << "sync arena exhausted";
  return base_ + 4 * used_++;
}

uint32_t RtMutex::ReadWord(mk::Env& env) {
  uint32_t v = 0;
  WPOS_CHECK(env.CopyIn(word_, &v, 4) == base::Status::kOk);
  return v;
}

void RtMutex::WriteWord(mk::Env& env, uint32_t v) {
  WPOS_CHECK(env.CopyOut(word_, &v, 4) == base::Status::kOk);
}

void RtMutex::Lock(mk::Env& env) {
  kernel_.cpu().Execute(MutexFastRegion());
  // Green threads cannot be preempted between a read and the following
  // write except at kernel entries, so each read-modify-write below is
  // effectively atomic at the simulation's granularity (as a real CAS
  // would make it).
  if (ReadWord(env) == 0) {
    WriteWord(env, 1);  // uncontended fast path
    return;
  }
  ++contended_;
  while (true) {
    // Slow path: acquire in "contended" state so our unlock always wakes
    // the next waiter — otherwise a second sleeper is lost forever.
    const uint32_t v = ReadWord(env);
    if (v == 0) {
      WriteWord(env, 2);
      return;
    }
    WriteWord(env, 2);
    (void)kernel_.MemSyncWait(word_, 2);
  }
}

void RtMutex::Unlock(mk::Env& env) {
  kernel_.cpu().Execute(MutexFastRegion());
  const uint32_t v = ReadWord(env);
  WriteWord(env, 0);
  if (v == 2) {
    kernel_.MemSyncWake(word_, 1);
  }
}

void RtCondition::Wait(mk::Env& env, RtMutex& mutex) {
  uint32_t seq = 0;
  WPOS_CHECK(env.CopyIn(seq_word_, &seq, 4) == base::Status::kOk);
  mutex.Unlock(env);
  (void)kernel_.MemSyncWait(seq_word_, seq);
  mutex.Lock(env);
}

void RtCondition::Signal(mk::Env& env) {
  uint32_t seq = 0;
  WPOS_CHECK(env.CopyIn(seq_word_, &seq, 4) == base::Status::kOk);
  ++seq;
  WPOS_CHECK(env.CopyOut(seq_word_, &seq, 4) == base::Status::kOk);
  kernel_.MemSyncWake(seq_word_, 1);
}

void RtCondition::Broadcast(mk::Env& env) {
  uint32_t seq = 0;
  WPOS_CHECK(env.CopyIn(seq_word_, &seq, 4) == base::Status::kOk);
  ++seq;
  WPOS_CHECK(env.CopyOut(seq_word_, &seq, 4) == base::Status::kOk);
  kernel_.MemSyncWake(seq_word_, ~0u);
}

mk::Thread* CThreads::Fork(const std::string& name, mk::ThreadBody body, int priority) {
  return kernel_.CreateThread(task_, name, std::move(body), priority);
}

RtHeap::RtHeap(mk::Kernel& kernel, mk::Task& task, uint64_t size) : kernel_(kernel) {
  size_ = hw::PageRound(size);
  auto addr = kernel_.VmAllocate(task, size_);
  WPOS_CHECK(addr.ok());
  base_ = *addr;
  free_list_.emplace(base_, size_);
}

base::Result<hw::VirtAddr> RtHeap::Malloc(uint64_t size) {
  kernel_.cpu().Execute(HeapRegion());
  if (size == 0) {
    return base::Status::kInvalidArgument;
  }
  size = (size + 15) & ~15ull;
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->second >= size) {
      const hw::VirtAddr addr = it->first;
      const uint64_t remaining = it->second - size;
      free_list_.erase(it);
      if (remaining > 0) {
        free_list_.emplace(addr + size, remaining);
      }
      allocations_.emplace(addr, size);
      in_use_ += size;
      if (in_use_ > high_water_) {
        high_water_ = in_use_;
      }
      return addr;
    }
  }
  return base::Status::kResourceShortage;
}

base::Status RtHeap::Free(hw::VirtAddr addr) {
  kernel_.cpu().Execute(HeapRegion());
  auto it = allocations_.find(addr);
  if (it == allocations_.end()) {
    return base::Status::kInvalidAddress;
  }
  uint64_t size = it->second;
  in_use_ -= size;
  allocations_.erase(it);
  // Coalesce with neighbours.
  auto next = free_list_.upper_bound(addr);
  if (next != free_list_.end() && addr + size == next->first) {
    size += next->second;
    free_list_.erase(next);
  }
  if (!free_list_.empty()) {
    auto prev = free_list_.upper_bound(addr);
    if (prev != free_list_.begin()) {
      --prev;
      if (prev->first + prev->second == addr) {
        prev->second += size;
        return base::Status::kOk;
      }
    }
  }
  free_list_.emplace(addr, size);
  return base::Status::kOk;
}

}  // namespace mks
