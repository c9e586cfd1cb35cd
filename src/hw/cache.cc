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

Cache::Cache(const CacheConfig& config) : ways_(config.ways) {
  WPOS_CHECK(config.ways != 0) << "cache ways must be non-zero";
  WPOS_CHECK(config.size_bytes != 0) << "cache size must be non-zero";
  WPOS_CHECK(config.line_bytes != 0 && (config.line_bytes & (config.line_bytes - 1)) == 0)
      << "cache line size must be a non-zero power of two";
  WPOS_CHECK(config.line_bytes >= 2) << "cache lines must be at least 2 bytes";
  const uint64_t set_bytes = static_cast<uint64_t>(config.line_bytes) * config.ways;
  WPOS_CHECK(config.size_bytes % set_bytes == 0) << "cache geometry must divide evenly";
  const uint32_t num_sets = static_cast<uint32_t>(config.size_bytes / set_bytes);
  WPOS_CHECK((num_sets & (num_sets - 1)) == 0) << "set count must be a power of two";
  line_shift_ = Log2(config.line_bytes);
  set_mask_ = num_sets - 1;
  lines_.resize(static_cast<size_t>(num_sets) * ways_);
}

CacheStats Cache::WalkAnyWays(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
  return Walk<0>(addr, count, stride, write);
}

Cache::AccessResult Cache::MoveToFront(Line* set, uint64_t line_addr, bool write) {
  // A hit below slot 0 moves up; a miss drops the last slot, which is empty
  // or the least recently used line.
  uint32_t w = 1;
  while (w < ways_ && set[w].addr != line_addr) {
    ++w;
  }
  const bool hit = w < ways_;
  w = hit ? w : ways_ - 1;
  const bool writeback = !hit && set[w].dirty;
  const bool dirty = write || (hit && set[w].dirty);
  for (; w > 0; --w) {
    set[w] = set[w - 1];
  }
  set[0] = {.addr = line_addr, .dirty = dirty};
  return {.hit = hit, .writeback = writeback};
}

void Cache::Flush() {
  for (Line& line : lines_) {
    stats_.writebacks += line.dirty ? 1 : 0;
    line = Line{};
  }
}

}  // namespace hw
