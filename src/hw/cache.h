// Set-associative cache model with LRU replacement and write-back policy.
// Used for both the instruction and the data cache. The model tracks only
// which lines it holds, not their contents: it answers "hit or miss" and
// reports write-backs so the CPU model can account bus traffic.
//
// Each set is kept in recency order: slot 0 holds the most recently used
// line, and occupied slots form a prefix, so the last slot is the LRU victim
// or empty. A hit moves its line to the front; a miss shifts the set down one
// slot and fills slot 0. A slot holds its whole line address, so a lookup is
// one compare, and an empty slot holds kEmpty, which no line address equals.
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

  CacheStats& operator+=(const CacheStats& rhs) {
    accesses += rhs.accesses;
    misses += rhs.misses;
    writebacks += rhs.writebacks;
    return *this;
  }
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
  // run's own stats. Inline: every simulated code region and data range runs
  // it. Only the two-way build is inline, small enough to inline in turn
  // into the CPU model's per-step loops; other geometries take the generic
  // build out of line.
  CacheStats AccessLines(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    return ways_ == 2 ? Walk<2>(addr, count, stride, write)
                      : WalkAnyWays(addr, count, stride, write);
  }

  // Invalidate everything, writing back dirty lines (counted in stats).
  void Flush();

  const CacheStats& stats() const { return stats_; }

 private:
  // Lines are at least two bytes, so a line address is below 2^63.
  static constexpr uint64_t kEmpty = ~0ull;

  struct Line {
    uint64_t addr = kEmpty;  // addr >> line_shift_ of the line held
    bool dirty = false;      // never set on an empty slot
  };

  // AccessLines for the Pentium's two ways (kWays 2), with no call in the
  // loop so geometry and counts stay in registers, and for any geometry (0).
  template <uint32_t kWays>
  CacheStats Walk(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    const uint32_t ways = kWays != 0 ? kWays : ways_;
    const uint64_t set_mask = set_mask_;
    Line* const lines = lines_.data();
    uint64_t misses = 0;
    uint64_t writebacks = 0;
    uint64_t line_addr = addr >> line_shift_;
    for (uint64_t i = 0; i < count; ++i, line_addr += stride) {
      Line* set = &lines[static_cast<size_t>(line_addr & set_mask) * ways];
      if (set[0].addr == line_addr) {
        if (write) {
          set[0].dirty = true;
        }
        continue;
      }
      if constexpr (kWays == 2) {
        // Slot 1 hits and moves up or is evicted; slot 0 moves down either way.
        const Line old = set[1];
        const bool hit = old.addr == line_addr;
        misses += hit ? 0 : 1;
        writebacks += !hit && old.dirty ? 1 : 0;
        set[1] = set[0];
        set[0] = {.addr = line_addr, .dirty = write || (hit && old.dirty)};
      } else {
        const AccessResult r = MoveToFront(set, line_addr, write);
        misses += r.hit ? 0 : 1;
        writebacks += r.writeback ? 1 : 0;
      }
    }
    stats_.accesses += count;
    stats_.misses += misses;
    stats_.writebacks += writebacks;
    return {.accesses = count, .misses = misses, .writebacks = writebacks};
  }

  // Walk<0>, built in cache.cc.
  CacheStats WalkAnyWays(PhysAddr addr, uint64_t count, uint64_t stride, bool write);

  // Everything but a hit on slot 0: a hit further down moves its line to
  // the front; a miss evicts the last slot and fills slot 0.
  AccessResult MoveToFront(Line* set, uint64_t line_addr, bool write);

  uint32_t ways_;
  uint32_t line_shift_;
  uint64_t set_mask_;  // number of sets - 1
  std::vector<Line> lines_;  // sets * ways, row-major by set, each set MRU first
  CacheStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
