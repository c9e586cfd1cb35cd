// Kernel "heap" of simulated physical addresses.
//
// Kernel objects (threads, ports, message buffers, page tables) are ordinary
// C++ objects, but the D-cache model needs physical addresses for them so
// that walking a port space or touching a thread control block has realistic
// cache behaviour. Each kernel object asks this allocator for a simulated
// address range at construction. The range is carved from machine RAM so the
// kernel's data competes for the same cache sets as user data, as it did on
// the real machines.
#ifndef SRC_MK_KERNEL_HEAP_H_
#define SRC_MK_KERNEL_HEAP_H_

#include <cstdint>

#include "src/base/log.h"
#include "src/base/status.h"
#include "src/hw/types.h"

namespace mk {

class KernelHeap {
 public:
  KernelHeap(hw::PhysAddr base, uint64_t size) : base_(base), next_(base), end_(base + size) {}

  // Allocation for sizes a client chose: a request the heap cannot hold
  // answers kResourceShortage and takes nothing. The bound is checked as
  // `size <= end_ - addr` so a huge size cannot wrap past it.
  base::Result<hw::PhysAddr> TryAllocate(uint64_t size, uint64_t align = 16) {
    const hw::PhysAddr addr = (next_ + align - 1) & ~(align - 1);
    if (addr > end_ || size > end_ - addr) {
      return base::Status::kResourceShortage;
    }
    next_ = addr + size;
    bytes_allocated_ += size;
    return addr;
  }

  // Allocation for the kernel's own objects: tasks, threads and objects made
  // once at construction (tools/lint.py rule 12 lists the sites). The heap
  // never frees, so their exhaustion is still a host abort.
  hw::PhysAddr Allocate(uint64_t size, uint64_t align = 16) {
    const base::Result<hw::PhysAddr> addr = TryAllocate(size, align);
    WPOS_CHECK(addr.ok()) << "kernel heap exhausted";
    return *addr;
  }

  uint64_t bytes_allocated() const { return bytes_allocated_; }
  hw::PhysAddr base() const { return base_; }

 private:
  hw::PhysAddr base_;
  hw::PhysAddr next_;
  hw::PhysAddr end_;
  uint64_t bytes_allocated_ = 0;
};

}  // namespace mk

#endif  // SRC_MK_KERNEL_HEAP_H_
