// Set-associative cache model with LRU replacement and write-back policy.
// Used for both the instruction and the data cache. The model tracks only
// tags, not contents: it answers "hit or miss" and reports write-backs so the
// CPU model can account bus traffic.
//
// Each set is kept in recency order: slot 0 holds the most recently used
// line, and valid lines form a prefix, so the last slot is the LRU victim or
// empty. A hit moves its line to the front; a miss shifts the set down one
// slot and fills slot 0.
#ifndef SRC_HW_CACHE_H_
#define SRC_HW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/types.h"

namespace hw {

struct CacheConfig {
  uint32_t size_bytes = 8 * 1024;  // Pentium P54C: 8 KB split I/D
  uint32_t line_bytes = 32;
  uint32_t ways = 2;
};

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  // a dirty line was evicted
  };

  // Touch the line containing `addr`. `write` marks the line dirty on a data
  // cache; instruction caches pass write=false always.
  AccessResult Access(PhysAddr addr, bool write) {
    const CacheStats r = AccessLines(addr, 1, 0, write);
    return {.hit = r.misses == 0, .writeback = r.writebacks != 0};
  }

  // Touch `count` lines in order, the first the one containing `addr`, each
  // next one `stride` lines on, as `count` Access calls would; returns the
  // run's own stats. Inline: every simulated code region and data range runs it.
  CacheStats AccessLines(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    return ways_ == 2 ? Walk<2>(addr, count, stride, write) : Walk<0>(addr, count, stride, write);
  }

  // Invalidate everything, writing back dirty lines (counted in stats).
  void Flush();

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
  };

  // AccessLines for the Pentium's two ways (kWays 2), with no call in the
  // loop so geometry and counts stay in registers, and for any geometry (0).
  template <uint32_t kWays>
  CacheStats Walk(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    const uint32_t ways = kWays != 0 ? kWays : ways_;
    const uint32_t set_shift = set_shift_;
    const uint64_t set_mask = set_mask_;
    Line* const lines = lines_.data();
    uint64_t misses = 0;
    uint64_t writebacks = 0;
    uint64_t line_addr = addr >> line_shift_;
    for (uint64_t i = 0; i < count; ++i, line_addr += stride) {
      const uint64_t tag = line_addr >> set_shift;
      Line* set = &lines[static_cast<size_t>(line_addr & set_mask) * ways];
      if (set[0].valid && set[0].tag == tag) {
        set[0].dirty = set[0].dirty || write;
        continue;
      }
      if constexpr (kWays == 2) {
        // Slot 1 hits and moves up or is evicted; slot 0 moves down either way.
        const Line old = set[1];
        const bool hit = old.valid && old.tag == tag;
        misses += hit ? 0 : 1;
        writebacks += !hit && old.valid && old.dirty ? 1 : 0;
        set[1] = set[0];
        set[0] = {.tag = tag, .valid = true, .dirty = write || (hit && old.dirty)};
      } else {
        const AccessResult r = MoveToFront(set, tag, write);
        misses += r.hit ? 0 : 1;
        writebacks += r.writeback ? 1 : 0;
      }
    }
    stats_.accesses += count;
    stats_.misses += misses;
    stats_.writebacks += writebacks;
    return {.accesses = count, .misses = misses, .writebacks = writebacks};
  }

  // Everything but a hit on slot 0: a hit further down moves its line to
  // the front; a miss evicts the last slot and fills slot 0.
  AccessResult MoveToFront(Line* set, uint64_t tag, bool write);

  uint32_t ways_;
  uint32_t line_shift_;
  uint32_t set_shift_;  // log2(number of sets): a line address's tag starts here
  uint64_t set_mask_;   // number of sets - 1
  std::vector<Line> lines_;  // sets * ways, row-major by set, each set MRU first
  CacheStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
