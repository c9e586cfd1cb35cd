#include "src/svc/fs/block_cache.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"

namespace svc {

namespace {
const hw::CodeRegion& HitRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.bcache_hit", 60);
  return r;
}
const hw::CodeRegion& MissRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.bcache_miss", 140);
  return r;
}
}  // namespace

BlockCache::BlockCache(mk::Kernel& kernel, mks::BlockStore* store, uint32_t capacity_sectors)
    : kernel_(kernel), store_(store), capacity_(capacity_sectors) {
  WPOS_CHECK(capacity_ > 0) << "a block cache needs room for one sector";
}

std::pair<uint64_t, uint32_t> BlockCache::DirtyRunAround(uint64_t victim) {
  auto dirty_at = [&](uint64_t lba) {
    kernel_.cpu().Execute(HitRegion());
    auto it = entries_.find(lba);
    return it != entries_.end() && it->second.dirty;
  };
  uint64_t first = victim;
  uint32_t count = 1;
  while (count < kMaxRunSectors && first > 0 && dirty_at(first - 1)) {
    --first;
    ++count;
  }
  while (count < kMaxRunSectors && dirty_at(first + count)) {
    ++count;
  }
  return {first, count};
}

void BlockCache::TakeDirty(uint64_t first, uint32_t count, uint8_t* out) {
  for (uint32_t i = 0; i < count; ++i) {
    Entry& e = entries_.at(first + i);
    std::memcpy(out + static_cast<size_t>(i) * kSectorSize, e.data.data(), kSectorSize);
    e.dirty = false;
  }
  writebacks_ += count;
}

void BlockCache::RestoreDirty(uint64_t first, uint32_t count) {
  for (uint64_t lba = first; lba < first + count; ++lba) {
    if (auto it = entries_.find(lba); it != entries_.end()) {
      it->second.dirty = true;
    }
  }
}

void BlockCache::DropIfClean(uint64_t lba) {
  auto it = entries_.find(lba);
  if (it == entries_.end() || it->second.dirty) {
    return;  // another thread dropped it, or wrote it again
  }
  lru_.erase(it->second.lru_pos);
  free_sim_addrs_.push_back(it->second.sim_addr);  // recycle: the heap can't free
  entries_.erase(it);
}

base::Result<BlockCache::Entry*> BlockCache::GetSector(mk::Env& env, uint64_t lba, bool load) {
  auto it = entries_.find(lba);
  if (it != entries_.end()) {
    ++hits_;
    // Lookup cost only. The data traffic is charged once by the caller
    // (ReadSector/WriteSector) for the full sector; charging a partial
    // touch here too double-counted the D-cache on every hit.
    kernel_.cpu().Execute(HitRegion());
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second;
  }
  ++misses_;
  kernel_.cpu().Execute(MissRegion());
  Entry e;
  e.data.resize(kSectorSize);
  bool loaded = !load;
  while (entries_.size() >= capacity_) {
    const uint64_t victim = lru_.back();
    if (entries_.at(victim).dirty) {
      const auto [first, count] = DirtyRunAround(victim);
      std::vector<uint8_t> run(static_cast<size_t>(count) * kSectorSize);
      TakeDirty(first, count, run.data());
      const base::Status st =
          loaded ? store_->Write(env, first, count, run.data())
                 : store_->WriteThenRead(env, first, count, run.data(), lba, e.data.data());
      if (st != base::Status::kOk) {
        RestoreDirty(first, count);
        return st;
      }
      loaded = true;
    }
    DropIfClean(victim);
  }
  if (!free_sim_addrs_.empty()) {
    e.sim_addr = free_sim_addrs_.back();
    free_sim_addrs_.pop_back();
  } else {
    const base::Result<hw::PhysAddr> addr = kernel_.heap().TryAllocate(kSectorSize);
    if (!addr.ok()) {
      return addr.status();  // a full kernel heap: nothing cached, nothing read
    }
    e.sim_addr = *addr;
  }
  if (!loaded) {
    const base::Status st = store_->Read(env, lba, 1, e.data.data());
    if (st != base::Status::kOk) {
      free_sim_addrs_.push_back(e.sim_addr);
      return st;
    }
  }
  // Another thread may have loaded the sector while this one was blocked in
  // the store; its copy is the current one.
  it = entries_.find(lba);
  if (it != entries_.end()) {
    free_sim_addrs_.push_back(e.sim_addr);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second;
  }
  lru_.push_front(lba);
  e.lru_pos = lru_.begin();
  return &entries_.emplace(lba, std::move(e)).first->second;
}

base::Status BlockCache::ReadBytes(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len,
                                   void* out) {
  WPOS_DCHECK(len != 0 && offset < kSectorSize && len <= kSectorSize - offset);
  auto e = GetSector(env, lba, /*load=*/true);
  if (!e.ok()) {
    return e.status();
  }
  std::memcpy(out, (*e)->data.data() + offset, len);
  kernel_.cpu().AccessData((*e)->sim_addr + offset, len, /*write=*/false);
  return base::Status::kOk;
}

base::Status BlockCache::WriteBytes(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len,
                                    const void* data) {
  WPOS_DCHECK(len != 0 && offset < kSectorSize && len <= kSectorSize - offset);
  auto e = GetSector(env, lba, /*load=*/len != kSectorSize);
  if (!e.ok()) {
    return e.status();
  }
  std::memcpy((*e)->data.data() + offset, data, len);
  (*e)->dirty = true;
  kernel_.cpu().AccessData((*e)->sim_addr + offset, len, /*write=*/true);
  return base::Status::kOk;
}

base::Status BlockCache::ZeroTail(mk::Env& env, uint64_t lba, uint32_t from) {
  static constexpr uint8_t kZeros[kSectorSize] = {};
  return WriteBytes(env, lba, from, kSectorSize - from, kZeros);
}

base::Status BlockCache::Flush(mk::Env& env) {
  // Write back in LBA order: the sequence of simulated I/O (and its costs)
  // must not depend on hash-table iteration order.
  std::vector<uint64_t> dirty;
  for (const auto& [lba, e] : entries_) {  // unordered-ok: sorted below
    if (e.dirty) {
      dirty.push_back(lba);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (uint64_t lba : dirty) {
    // Another thread may have written the sector back, or dropped it, while
    // this one was blocked on an earlier sector.
    auto it = entries_.find(lba);
    if (it == entries_.end() || !it->second.dirty) {
      continue;
    }
    uint8_t data[kSectorSize];
    TakeDirty(lba, 1, data);
    const base::Status st = store_->Write(env, lba, 1, data);
    if (st != base::Status::kOk) {
      RestoreDirty(lba, 1);
      return st;
    }
  }
  return store_->Sync(env);
}

}  // namespace svc
