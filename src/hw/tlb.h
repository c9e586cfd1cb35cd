// TLB model. The Pentium and 604 of the paper had no address-space tags, so
// an address-space switch flushes the whole TLB; the refill cost after a
// switch is one of the context-switch costs the paper calls out. Sets are
// kept in recency order, as in cache.h: slot 0 most recently used, the last
// slot the LRU victim or an empty slot.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/types.h"

namespace hw {

struct TlbConfig {
  uint32_t entries = 64;  // Pentium DTLB: 64 entries
  uint32_t ways = 4;
};

struct TlbStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  uint64_t flushes = 0;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  // Touch the translation for virtual page `vpn` for `lookups` back-to-back
  // accesses, of which only the first can miss. Returns true on hit; on a miss
  // the entry is installed (the page walk itself is charged by the CPU).
  bool Access(uint64_t vpn, uint64_t lookups = 1) {
    stats_.accesses += lookups;
    Entry* set = &entries_[static_cast<size_t>(vpn & set_mask_) * ways_];
    if (set[0].valid && set[0].vpn == vpn) {
      return true;
    }
    return MoveToFront(set, vpn);
  }

  void Flush();

  const TlbStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t vpn = 0;
    bool valid = false;
  };

  // Everything but a hit on slot 0, as Cache::MoveToFront.
  bool MoveToFront(Entry* set, uint64_t vpn);

  uint32_t ways_;
  uint64_t set_mask_;  // number of sets - 1
  std::vector<Entry> entries_;  // sets * ways, row-major by set, each set MRU first
  TlbStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_TLB_H_
