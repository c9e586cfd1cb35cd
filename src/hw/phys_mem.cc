#include "src/hw/phys_mem.h"

#include "src/base/log.h"

namespace hw {

PhysMem::PhysMem(uint64_t size_bytes) : data_(size_bytes) {
  WPOS_CHECK(size_bytes % kPageSize == 0);
  frame_used_.resize(size_bytes >> kPageShift, false);
}

base::Result<PhysAddr> PhysMem::AllocFrame() {
  const uint64_t n = frame_used_.size();
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t f = (next_hint_ + i) % n;
    if (!frame_used_[f]) {
      frame_used_[f] = true;
      next_hint_ = f + 1;
      ++frames_allocated_;
      return PhysAddr{f << kPageShift};
    }
  }
  return base::Status::kResourceShortage;
}

base::Result<PhysAddr> PhysMem::AllocContiguous(uint64_t count) {
  const uint64_t n = frame_used_.size();
  uint64_t run = 0;
  for (uint64_t f = 0; f < n; ++f) {
    run = frame_used_[f] ? 0 : run + 1;
    if (run == count) {
      const uint64_t start = f + 1 - count;
      for (uint64_t i = start; i <= f; ++i) {
        frame_used_[i] = true;
      }
      frames_allocated_ += count;
      return PhysAddr{start << kPageShift};
    }
  }
  return base::Status::kResourceShortage;
}

void PhysMem::FreeFrame(PhysAddr frame) {
  WPOS_CHECK((frame & kPageMask) == 0);
  const uint64_t f = frame >> kPageShift;
  WPOS_CHECK(f < frame_used_.size());
  WPOS_CHECK(frame_used_[f]) << "double free of frame " << f;
  frame_used_[f] = false;
  --frames_allocated_;
}

bool PhysMem::IsAllocated(PhysAddr frame) const {
  const uint64_t f = frame >> kPageShift;
  return f < frame_used_.size() && frame_used_[f];
}

void PhysMem::Read(PhysAddr addr, void* out, uint64_t len) const {
  WPOS_CHECK(addr + len <= data_.size()) << "physical read out of range";
  std::memcpy(out, data_.data() + addr, len);
}

void PhysMem::Write(PhysAddr addr, const void* src, uint64_t len) {
  WPOS_CHECK(addr + len <= data_.size()) << "physical write out of range";
  std::memcpy(data_.data() + addr, src, len);
}

void PhysMem::Fill(PhysAddr addr, uint8_t byte, uint64_t len) {
  WPOS_CHECK(addr + len <= data_.size());
  std::memset(data_.data() + addr, byte, len);
}

uint8_t PhysMem::ReadU8(PhysAddr addr) const {
  uint8_t v;
  Read(addr, &v, 1);
  return v;
}

uint32_t PhysMem::ReadU32(PhysAddr addr) const {
  uint32_t v;
  Read(addr, &v, 4);
  return v;
}

void PhysMem::WriteU8(PhysAddr addr, uint8_t v) { Write(addr, &v, 1); }

void PhysMem::WriteU32(PhysAddr addr, uint32_t v) { Write(addr, &v, 4); }

}  // namespace hw
