// Write-back LRU sector cache between the physical file systems and the
// block store (which is usually the disk driver's RPC service). This is the
// file server's buffering, whose cost structure drives the file-intensive
// results in Table 1: hits stay inside the server, misses pay a full RPC to
// the driver plus the device time.
#ifndef SRC_SVC_FS_BLOCK_CACHE_H_
#define SRC_SVC_FS_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/drv/disk_driver.h"
#include "src/mk/kernel.h"
#include "src/mks/pager/default_pager.h"

namespace svc {

// Every miss is at most one store request. A dirty LRU victim takes the
// contiguous run of cached dirty sectors around it, at most kMaxRunSectors,
// and the run is written in the request that loads the missing sector
// (BlockStore::WriteThenRead), or alone when a whole-sector write missed.
//
// Two threads of one server may be inside the cache at once (the file
// server's request and pager threads), and each blocks in the store on a
// miss. So nothing is held across a store call: a thread re-looks-up its
// victim and its sector when it resumes. A run's dirty bits are cleared when
// it is gathered, so a write that lands while the run is in flight dirties
// its sector again.
class BlockCache {
 public:
  static constexpr uint32_t kSectorSize = 512;
  // The disk engine's per-command limit, which both systems' stores run.
  static constexpr uint32_t kMaxRunSectors = drv::DiskEngine::kMaxSectors;

  BlockCache(mk::Kernel& kernel, mks::BlockStore* store, uint32_t capacity_sectors = 256);

  // Bytes [offset, offset + len) of sector `lba`, in place: one lookup, and
  // only the D-cache lines the range spans. A partial write loads the sector
  // on a miss; a whole-sector write reads nothing from the store.
  base::Status ReadBytes(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len, void* out);
  base::Status WriteBytes(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len,
                          const void* data);
  base::Status ReadSector(mk::Env& env, uint64_t lba, void* out) {
    return ReadBytes(env, lba, 0, kSectorSize, out);
  }
  base::Status WriteSector(mk::Env& env, uint64_t lba, const void* data) {
    return WriteBytes(env, lba, 0, kSectorSize, data);
  }
  // Zeroes bytes [from, kSectorSize) of sector `lba`: the tail of a
  // truncated file's last block, which a later write past the new end must
  // not bring back.
  base::Status ZeroTail(mk::Env& env, uint64_t lba, uint32_t from);
  // One write per dirty sector, in LBA order, then the store's Sync: on
  // return every write-back, a posted one too, is on the platter. Runs are
  // for eviction only: runs here moved perfbench docs p50 by +1.65% through
  // the state `mkfs` leaves, though its window never flushes
  // (EXPERIMENTS.md, "Write-back runs").
  base::Status Flush(mk::Env& env);

  uint64_t num_sectors() const { return store_->num_sectors(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t writebacks() const { return writebacks_; }
  size_t free_list_size() const { return free_sim_addrs_.size(); }

 private:
  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
    std::list<uint64_t>::iterator lru_pos;
    hw::PhysAddr sim_addr = 0;
  };

  base::Result<Entry*> GetSector(mk::Env& env, uint64_t lba, bool load);
  // The first LBA and length of the run of cached dirty sectors around the
  // dirty `victim`, probed downward then upward; each probe is charged as
  // one hit lookup.
  std::pair<uint64_t, uint32_t> DirtyRunAround(uint64_t victim);
  // Copies the cached sectors [first, first + count) to `out` and clears
  // their dirty bits; RestoreDirty sets them again when their write fails.
  void TakeDirty(uint64_t first, uint32_t count, uint8_t* out);
  void RestoreDirty(uint64_t first, uint32_t count);
  // Drops `lba` if it is still cached and clean.
  void DropIfClean(uint64_t lba);

  mk::Kernel& kernel_;
  mks::BlockStore* store_;
  uint32_t capacity_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // front = most recent
  // Simulated buffer addresses recycled from evicted entries. KernelHeap is
  // a bump allocator with no Free(); without recycling, every eviction
  // leaked its sector buffer and a long-running cache crawled through the
  // whole kernel heap.
  std::vector<hw::PhysAddr> free_sim_addrs_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t writebacks_ = 0;
};

}  // namespace svc

#endif  // SRC_SVC_FS_BLOCK_CACHE_H_
