// VmMap: a task's address space — an ordered list of entries mapping virtual
// ranges to VM objects, as in Mach. Entry manipulation here is pure
// bookkeeping; the fault path and cost charging live in the kernel.
#ifndef SRC_MK_VM_MAP_H_
#define SRC_MK_VM_MAP_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/base/status.h"
#include "src/hw/types.h"
#include "src/mk/ids.h"
#include "src/mk/vm_object.h"

namespace mk {

struct VmMapEntry {
  hw::VirtAddr start = 0;
  uint64_t size = 0;
  std::shared_ptr<VmObject> object;
  uint64_t offset = 0;  // offset of `start` within the object
  Prot prot = Prot::kReadWrite;
  bool coerced = false;  // same-address shared region (the IBM extension)
  bool needs_copy = false;  // entry must shadow its object before first write

  hw::VirtAddr end() const { return start + size; }
  uint64_t PageIndexOf(hw::VirtAddr vaddr) const {
    return (offset + (vaddr - start)) >> hw::kPageShift;
  }
};

class VmMap {
 public:
  // User address space layout. The coerced range is reserved: ordinary
  // anywhere-allocations never land there, so every task can map coerced
  // regions at their fixed addresses.
  static constexpr hw::VirtAddr kUserMin = 0x0000'1000;
  static constexpr hw::VirtAddr kUserMax = 0x7000'0000;
  static constexpr hw::VirtAddr kCoercedMin = 0x7000'0000;
  static constexpr hw::VirtAddr kCoercedMax = 0x8000'0000;

  // Finds the entry containing `vaddr`, or null.
  VmMapEntry* Lookup(hw::VirtAddr vaddr);

  // Inserts a mapping of `object` at a caller-fixed address. Fails with
  // kNoSpace if the range overlaps an existing entry or exceeds the space.
  base::Status InsertAt(const VmMapEntry& entry);

  // Chooses an address in [kUserMin, kUserMax) for `size` bytes, inserts, and
  // returns the address.
  base::Result<hw::VirtAddr> InsertAnywhere(VmMapEntry entry);

  // Removes [start, start+size); only whole-entry deallocation is
  // supported.
  base::Status Remove(hw::VirtAddr start, uint64_t size);

  std::map<hw::VirtAddr, VmMapEntry>& entries() { return entries_; }
  const std::map<hw::VirtAddr, VmMapEntry>& entries() const { return entries_; }
  size_t entry_count() const { return entries_.size(); }

 private:
  bool RangeFree(hw::VirtAddr start, uint64_t size) const;
  std::map<hw::VirtAddr, VmMapEntry> entries_;  // keyed by start
};

}  // namespace mk

#endif  // SRC_MK_VM_MAP_H_
