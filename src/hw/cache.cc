#include "src/hw/cache.h"

#include "src/base/log.h"

namespace hw {

namespace {
uint32_t Log2(uint32_t v) {
  uint32_t r = 0;
  while ((1u << r) < v) {
    ++r;
  }
  return r;
}
}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  WPOS_CHECK(config.size_bytes % (config.line_bytes * config.ways) == 0)
      << "cache geometry must divide evenly";
  num_sets_ = config.size_bytes / (config.line_bytes * config.ways);
  WPOS_CHECK((num_sets_ & (num_sets_ - 1)) == 0) << "set count must be a power of two";
  line_shift_ = Log2(config.line_bytes);
  set_shift_ = Log2(num_sets_);
  lines_.resize(static_cast<size_t>(num_sets_) * config.ways);
}

Cache::AccessResult Cache::Miss(Line* base, uint64_t tag, bool write) {
  // Pick an invalid way, else the LRU victim.
  ++stats_.misses;
  Line* victim = &base[0];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) {
      victim = &line;
    }
  }
  const bool writeback = victim->valid && victim->dirty;
  if (writeback) {
    ++stats_.writebacks;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = write;
  victim->lru = tick_;
  return {.hit = false, .writeback = writeback};
}

void Cache::Flush() {
  for (Line& line : lines_) {
    if (line.valid && line.dirty) {
      ++stats_.writebacks;
    }
    line.valid = false;
    line.dirty = false;
  }
}

}  // namespace hw
