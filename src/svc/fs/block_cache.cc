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
    : kernel_(kernel), store_(store), capacity_(capacity_sectors) {}

base::Status BlockCache::Evict(mk::Env& env) {
  WPOS_CHECK(!lru_.empty());
  const uint64_t victim = lru_.back();
  Entry& e = entries_.at(victim);
  if (e.dirty) {
    ++writebacks_;
    const base::Status st = store_->Write(env, victim, 1, e.data.data());
    if (st != base::Status::kOk) {
      return st;
    }
  }
  lru_.pop_back();
  free_sim_addrs_.push_back(e.sim_addr);  // recycle: the heap can't free
  entries_.erase(victim);
  return base::Status::kOk;
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
  while (entries_.size() >= capacity_) {
    const base::Status st = Evict(env);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  Entry e;
  e.data.resize(kSectorSize);
  if (!free_sim_addrs_.empty()) {
    e.sim_addr = free_sim_addrs_.back();
    free_sim_addrs_.pop_back();
  } else {
    e.sim_addr = kernel_.heap().Allocate(kSectorSize);
  }
  if (load) {
    const base::Status st = store_->Read(env, lba, 1, e.data.data());
    if (st != base::Status::kOk) {
      return st;
    }
  }
  lru_.push_front(lba);
  e.lru_pos = lru_.begin();
  auto [pos, inserted] = entries_.emplace(lba, std::move(e));
  WPOS_CHECK(inserted);
  return &pos->second;
}

base::Status BlockCache::ReadSector(mk::Env& env, uint64_t lba, void* out) {
  auto e = GetSector(env, lba, /*load=*/true);
  if (!e.ok()) {
    return e.status();
  }
  std::memcpy(out, (*e)->data.data(), kSectorSize);
  kernel_.cpu().AccessData((*e)->sim_addr, kSectorSize, /*write=*/false);
  return base::Status::kOk;
}

base::Status BlockCache::WriteSector(mk::Env& env, uint64_t lba, const void* data) {
  auto e = GetSector(env, lba, /*load=*/false);
  if (!e.ok()) {
    return e.status();
  }
  std::memcpy((*e)->data.data(), data, kSectorSize);
  (*e)->dirty = true;
  kernel_.cpu().AccessData((*e)->sim_addr, kSectorSize, /*write=*/true);
  return base::Status::kOk;
}

base::Status BlockCache::ZeroTail(mk::Env& env, uint64_t lba, uint32_t from) {
  uint8_t sector[kSectorSize] = {};
  if (from != 0) {
    const base::Status st = ReadSector(env, lba, sector);
    if (st != base::Status::kOk) {
      return st;
    }
    std::memset(sector + from, 0, kSectorSize - from);
  }
  return WriteSector(env, lba, sector);
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
    Entry& e = entries_.at(lba);
    ++writebacks_;
    const base::Status st = store_->Write(env, lba, 1, e.data.data());
    if (st != base::Status::kOk) {
      return st;
    }
    e.dirty = false;
  }
  return base::Status::kOk;
}

}  // namespace svc
