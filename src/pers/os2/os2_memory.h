// OS/2 memory management layered on the microkernel — the paper's "two
// memory management systems" problem.
//
// OS/2 semantics: commitment-oriented, eager allocation, byte-granular
// (DosAllocMem/DosSubAllocMem), with the operating system
// *retaining allocation sizes*. The microkernel's VM is page-oriented, lazy,
// and forgets sizes. The result, reproduced here, is a second allocator
// stacked on the first: every OS/2 object costs its pages (committed eagerly,
// not on fault) plus server-side metadata — which is what "greatly increased
// the memory footprint" in the paper's evaluation. The footprint counters
// feed bench_os2_memory.
#ifndef SRC_PERS_OS2_OS2_MEMORY_H_
#define SRC_PERS_OS2_OS2_MEMORY_H_

#include <map>

#include "src/mk/kernel.h"

namespace pers {

enum Os2MemFlags : uint32_t {
  kPagCommit = 1u << 0,  // commit at allocation (the common OS/2 case)
  kObjTile = 1u << 1,    // historical; accepted, ignored
};

class Os2Memory {
 public:
  Os2Memory(mk::Kernel& kernel, mk::Task& task) : kernel_(kernel), task_(task) {}

  // DosAllocMem: reserves `bytes` (byte-granular size retained) and, with
  // kPagCommit, eagerly commits every page through the fault path.
  base::Result<hw::VirtAddr> AllocMem(mk::Env& env, uint64_t bytes, uint32_t flags);
  base::Status FreeMem(mk::Env& env, hw::VirtAddr addr);
  // DosSubAllocMem-style byte-granular suballocation within an allocation.
  base::Result<hw::VirtAddr> SubAlloc(mk::Env& env, hw::VirtAddr pool, uint64_t bytes);
  base::Status SubFree(mk::Env& env, hw::VirtAddr pool, hw::VirtAddr addr);
  // DosQueryMem: OS/2 retains the allocation size; the microkernel does not.
  base::Result<uint64_t> QueryMemSize(hw::VirtAddr addr) const;

  // --- Footprint accounting (bench_os2_memory / claim C5) ---------------------
  // Pages committed eagerly that have never been touched by the program.
  uint64_t committed_pages() const { return committed_pages_; }
  // Host metadata the OS/2 layer keeps because the microkernel cannot.
  uint64_t metadata_bytes() const { return metadata_bytes_; }
  uint64_t allocations() const { return allocations_.size(); }

 private:
  struct SubBlock {
    uint64_t size = 0;
    bool used = false;
  };
  struct Allocation {
    uint64_t bytes = 0;  // byte-granular size (OS/2 retains this)
    uint64_t pages = 0;
    uint64_t committed = 0;  // committed page count
    std::map<hw::VirtAddr, SubBlock> sub_blocks;
  };

  base::Status CommitRange(mk::Env& env, hw::VirtAddr addr, uint64_t pages);

  mk::Kernel& kernel_;
  mk::Task& task_;
  std::map<hw::VirtAddr, Allocation> allocations_;
  uint64_t committed_pages_ = 0;
  uint64_t metadata_bytes_ = 0;
};

}  // namespace pers

#endif  // SRC_PERS_OS2_OS2_MEMORY_H_
