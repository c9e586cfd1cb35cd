// Set-associative cache model with LRU replacement and write-back policy.
// Used for both the instruction and the data cache. The model tracks only
// tags, not contents: it answers "hit or miss" and reports write-backs so the
// CPU model can account bus traffic.
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
  // cache; instruction caches pass write=false always. The hit path is
  // inline: every simulated instruction fetch and data access runs it.
  AccessResult Access(PhysAddr addr, bool write) {
    ++stats_.accesses;
    ++tick_;
    const uint64_t line_addr = addr >> line_shift_;
    const uint32_t set = static_cast<uint32_t>(line_addr & (num_sets_ - 1));
    const uint64_t tag = line_addr >> set_shift_;
    Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
    for (uint32_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = tick_;
        line.dirty = line.dirty || write;
        return {.hit = true, .writeback = false};
      }
    }
    return Miss(base, tag, write);
  }

  // Invalidate everything, writing back dirty lines (counted in stats).
  void Flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  uint32_t num_lines() const { return num_sets_ * config_.ways; }

 private:
  struct Line {
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t lru = 0;  // last-access stamp
  };

  // Fills the set at `base` for `tag`: an invalid way, else the LRU victim.
  AccessResult Miss(Line* base, uint64_t tag, bool write);

  CacheConfig config_;
  uint32_t num_sets_;
  uint32_t line_shift_;
  uint32_t set_shift_;  // log2(num_sets_): a line address's tag starts here
  std::vector<Line> lines_;  // num_sets_ * ways, row-major by set
  uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
