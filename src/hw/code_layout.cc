#include "src/hw/code_layout.h"

#include <cstdio>

#include "src/base/log.h"

namespace hw {

CodeLayout& CodeLayout::Global() {
  static CodeLayout* layout = new CodeLayout();
  return *layout;
}

CodeRegion CodeLayout::Register(const std::string& name, uint32_t instructions,
                                uint32_t sparsity) {
  auto it = regions_.find(name);
  if (it != regions_.end()) {
    WPOS_CHECK(it->second.instructions == instructions)
        << "code region " << name << " re-registered with a different size";
    return it->second;
  }
  const std::string component = name.substr(0, name.find('.'));
  PhysAddr& next = image_next_[component];
  if (next == 0) {
    // Stagger image bases across cache sets: linkers do not align every
    // module's text to the same cache-set-0 boundary, and doing so here
    // would manufacture pathological conflicts.
    next = next_image_base_ + (image_count_ * 1312) % 4096;
    ++image_count_;
    next_image_base_ += kImageAlign * 256;  // 16 MB of address space per image
  }
  CodeRegion region;
  region.base = next;
  region.instructions = instructions;
  region.sparsity = sparsity;
  // Line-align each function start (32-byte lines) as linkers typically do.
  next += (region.size_bytes() + 31) & ~31ull;
  regions_.emplace(name, region);
  names_by_base_.emplace(region.base, name);
  return region;
}

std::string CodeLayout::NameOf(PhysAddr base) const {
  auto it = names_by_base_.find(base);
  if (it != names_by_base_.end()) {
    return it->second;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "?0x%llx", static_cast<unsigned long long>(base));
  return buf;
}

}  // namespace hw
