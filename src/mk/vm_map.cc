#include "src/mk/vm_map.h"

#include "src/base/log.h"

namespace mk {

VmMapEntry* VmMap::Lookup(hw::VirtAddr vaddr) {
  auto it = entries_.upper_bound(vaddr);
  if (it == entries_.begin()) {
    return nullptr;
  }
  --it;
  VmMapEntry& e = it->second;
  return (vaddr >= e.start && vaddr < e.end()) ? &e : nullptr;
}

bool VmMap::RangeFree(hw::VirtAddr start, uint64_t size) const {
  if (size == 0) {
    return false;
  }
  auto it = entries_.upper_bound(start);
  if (it != entries_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end() > start) {
      return false;
    }
  }
  if (it != entries_.end() && it->second.start < start + size) {
    return false;
  }
  return true;
}

base::Status VmMap::InsertAt(const VmMapEntry& entry) {
  WPOS_CHECK((entry.start & hw::kPageMask) == 0);
  WPOS_CHECK((entry.size & hw::kPageMask) == 0);
  if (entry.size == 0 || entry.start + entry.size > kCoercedMax) {
    return base::Status::kInvalidArgument;
  }
  if (!RangeFree(entry.start, entry.size)) {
    return base::Status::kNoSpace;
  }
  entries_.emplace(entry.start, entry);
  return base::Status::kOk;
}

base::Result<hw::VirtAddr> VmMap::InsertAnywhere(VmMapEntry entry) {
  WPOS_CHECK((entry.size & hw::kPageMask) == 0);
  if (entry.size == 0) {
    return base::Status::kInvalidArgument;
  }
  // First-fit scan of the gaps between entries within the ordinary user range.
  hw::VirtAddr candidate = kUserMin;
  for (const auto& [start, e] : entries_) {
    if (e.start >= kUserMax) {
      break;
    }
    if (candidate + entry.size <= e.start) {
      break;
    }
    if (e.end() > candidate) {
      candidate = e.end();
    }
  }
  if (candidate + entry.size > kUserMax) {
    return base::Status::kNoSpace;
  }
  entry.start = candidate;
  entries_.emplace(entry.start, entry);
  return candidate;
}

base::Status VmMap::Remove(hw::VirtAddr start, uint64_t size) {
  auto it = entries_.find(start);
  if (it == entries_.end() || it->second.size != size) {
    return base::Status::kInvalidAddress;
  }
  entries_.erase(it);
  return base::Status::kOk;
}

}  // namespace mk
