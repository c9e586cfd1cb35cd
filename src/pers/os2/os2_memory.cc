#include "src/pers/os2/os2_memory.h"

#include "src/base/log.h"

namespace pers {

namespace {
const hw::CodeRegion& AllocRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.mem.alloc", 240);
  return r;
}
const hw::CodeRegion& CommitRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.mem.commit", 180);
  return r;
}
const hw::CodeRegion& SubAllocRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.mem.suballoc", 150);
  return r;
}
constexpr uint64_t kPerAllocationMetadata = 96;  // server-side bookkeeping
constexpr uint64_t kPerSubBlockMetadata = 32;
}  // namespace

base::Status Os2Memory::CommitRange(mk::Env& env, hw::VirtAddr addr, uint64_t pages) {
  kernel_.cpu().Execute(CommitRegion());
  // Eager allocation: touch every page now so frames exist before first use
  // (the opposite of the microkernel's lazy zero-fill).
  for (uint64_t i = 0; i < pages; ++i) {
    auto pa = kernel_.ResolveForAccess(task_, addr + i * hw::kPageSize, /*write=*/true);
    if (!pa.ok()) {
      return pa.status();
    }
  }
  return base::Status::kOk;
}

base::Result<hw::VirtAddr> Os2Memory::AllocMem(mk::Env& env, uint64_t bytes, uint32_t flags) {
  kernel_.cpu().Execute(AllocRegion());
  if (bytes == 0) {
    return base::Status::kInvalidArgument;
  }
  const uint64_t pages = hw::PageRound(bytes) >> hw::kPageShift;
  auto addr = kernel_.VmAllocate(task_, pages << hw::kPageShift);
  if (!addr.ok()) {
    return addr.status();
  }
  Allocation alloc;
  alloc.bytes = bytes;
  alloc.pages = pages;
  if ((flags & kPagCommit) != 0) {
    const base::Status st = CommitRange(env, *addr, pages);
    if (st != base::Status::kOk) {
      return st;
    }
    alloc.committed = pages;
    committed_pages_ += pages;
  }
  metadata_bytes_ += kPerAllocationMetadata;
  allocations_.emplace(*addr, std::move(alloc));
  return *addr;
}

base::Status Os2Memory::FreeMem(mk::Env& env, hw::VirtAddr addr) {
  auto it = allocations_.find(addr);
  if (it == allocations_.end()) {
    return base::Status::kInvalidAddress;
  }
  committed_pages_ -= it->second.committed;
  metadata_bytes_ -= kPerAllocationMetadata + it->second.sub_blocks.size() * kPerSubBlockMetadata;
  const base::Status st =
      kernel_.VmDeallocate(task_, addr, it->second.pages << hw::kPageShift);
  allocations_.erase(it);
  return st;
}

base::Result<hw::VirtAddr> Os2Memory::SubAlloc(mk::Env& env, hw::VirtAddr pool, uint64_t bytes) {
  kernel_.cpu().Execute(SubAllocRegion());
  auto it = allocations_.find(pool);
  if (it == allocations_.end()) {
    return base::Status::kInvalidAddress;
  }
  Allocation& alloc = it->second;
  bytes = (bytes + 7) & ~7ull;
  // First-fit within the pool, byte granular.
  hw::VirtAddr cursor = pool;
  const hw::VirtAddr end = pool + alloc.bytes;
  auto sub = alloc.sub_blocks.begin();
  while (cursor + bytes <= end) {
    if (sub == alloc.sub_blocks.end() || cursor + bytes <= sub->first) {
      alloc.sub_blocks.emplace(cursor, SubBlock{bytes, true});
      metadata_bytes_ += kPerSubBlockMetadata;
      return cursor;
    }
    cursor = sub->first + sub->second.size;
    ++sub;
  }
  return base::Status::kNoSpace;
}

base::Status Os2Memory::SubFree(mk::Env& env, hw::VirtAddr pool, hw::VirtAddr addr) {
  auto it = allocations_.find(pool);
  if (it == allocations_.end()) {
    return base::Status::kInvalidAddress;
  }
  auto sub = it->second.sub_blocks.find(addr);
  if (sub == it->second.sub_blocks.end()) {
    return base::Status::kInvalidAddress;
  }
  it->second.sub_blocks.erase(sub);
  metadata_bytes_ -= kPerSubBlockMetadata;
  return base::Status::kOk;
}

base::Result<uint64_t> Os2Memory::QueryMemSize(hw::VirtAddr addr) const {
  auto it = allocations_.find(addr);
  if (it == allocations_.end()) {
    return base::Status::kInvalidAddress;
  }
  return it->second.bytes;
}

}  // namespace pers
