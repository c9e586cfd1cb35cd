#include "src/hw/tlb.h"

#include "src/base/log.h"

namespace hw {

Tlb::Tlb(const TlbConfig& config) : ways_(config.ways) {
  WPOS_CHECK(config.ways != 0) << "TLB ways must be non-zero";
  WPOS_CHECK(config.entries != 0) << "TLB entries must be non-zero";
  WPOS_CHECK(config.entries % config.ways == 0) << "TLB entries must divide evenly into ways";
  const uint32_t num_sets = config.entries / config.ways;
  WPOS_CHECK((num_sets & (num_sets - 1)) == 0) << "TLB set count must be a power of two";
  set_mask_ = num_sets - 1;
  entries_.resize(config.entries);
}

bool Tlb::MoveToFront(Entry* set, uint64_t vpn) {
  uint32_t w = 1;
  while (w < ways_ && set[w].valid && set[w].vpn != vpn) {
    ++w;
  }
  const bool hit = w < ways_ && set[w].valid;
  if (!hit) {
    ++stats_.misses;
    w = ways_ - 1;
  }
  for (; w > 0; --w) {
    set[w] = set[w - 1];
  }
  set[0] = {.vpn = vpn, .valid = true};
  return hit;
}

void Tlb::Flush() {
  ++stats_.flushes;
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

}  // namespace hw
