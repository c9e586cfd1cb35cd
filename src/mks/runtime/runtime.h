// The personality-neutral runtime: a cthreads-style threading package over
// microkernel threads, mutexes and condition variables built on the
// memory-based synchronizers (user-level fast path, kernel slow path), and a
// heap allocator for personality-neutral code. This is the runtime that let
// WPOS run user-space code without requiring a UNIX environment.
#ifndef SRC_MKS_RUNTIME_RUNTIME_H_
#define SRC_MKS_RUNTIME_RUNTIME_H_

#include <map>
#include <string>

#include "src/mk/kernel.h"

namespace mks {

// Allocates 4-byte synchronization words out of a task-private page; the
// words live in simulated memory so the memory synchronizers work on them.
class SyncArena {
 public:
  SyncArena(mk::Kernel& kernel, mk::Task& task);
  hw::VirtAddr AllocWord();

 private:
  mk::Kernel& kernel_;
  mk::Task& task_;
  hw::VirtAddr base_ = 0;
  uint64_t used_ = 0;
  uint64_t capacity_ = 0;
};

// cthreads-flavoured mutex: three-state word (0 free, 1 held, 2 contended);
// uncontended acquire/release never enters the kernel.
class RtMutex {
 public:
  RtMutex(mk::Kernel& kernel, SyncArena& arena)
      : kernel_(kernel), word_(arena.AllocWord()) {}

  void Lock(mk::Env& env);
  void Unlock(mk::Env& env);
  hw::VirtAddr word() const { return word_; }

  uint64_t contended_acquires() const { return contended_; }

 private:
  uint32_t ReadWord(mk::Env& env);
  void WriteWord(mk::Env& env, uint32_t v);

  mk::Kernel& kernel_;
  hw::VirtAddr word_;
  uint64_t contended_ = 0;
};

// Condition variable over a sequence word; always used with an RtMutex.
class RtCondition {
 public:
  RtCondition(mk::Kernel& kernel, SyncArena& arena)
      : kernel_(kernel), seq_word_(arena.AllocWord()) {}

  void Wait(mk::Env& env, RtMutex& mutex);
  void Signal(mk::Env& env);
  void Broadcast(mk::Env& env);

 private:
  mk::Kernel& kernel_;
  hw::VirtAddr seq_word_;
};

// cthread_fork equivalent; join with mk::Kernel::ThreadJoin.
class CThreads {
 public:
  CThreads(mk::Kernel& kernel, mk::Task* task) : kernel_(kernel), task_(task) {}

  mk::Thread* Fork(const std::string& name, mk::ThreadBody body,
                   int priority = mk::Thread::kDefaultPriority);

 private:
  mk::Kernel& kernel_;
  mk::Task* task_;
};

// First-fit heap over a task VM region; metadata is host-side, addresses and
// contents are simulated. The ANSI C runtime's malloc/free.
class RtHeap {
 public:
  RtHeap(mk::Kernel& kernel, mk::Task& task, uint64_t size);

  base::Result<hw::VirtAddr> Malloc(uint64_t size);
  base::Status Free(hw::VirtAddr addr);
  uint64_t bytes_in_use() const { return in_use_; }
  uint64_t high_water() const { return high_water_; }

 private:
  mk::Kernel& kernel_;
  hw::VirtAddr base_ = 0;
  uint64_t size_ = 0;
  std::map<hw::VirtAddr, uint64_t> allocations_;  // addr -> size
  std::map<hw::VirtAddr, uint64_t> free_list_;    // addr -> size (coalesced)
  uint64_t in_use_ = 0;
  uint64_t high_water_ = 0;
};

}  // namespace mks

#endif  // SRC_MKS_RUNTIME_RUNTIME_H_
