// Simulated physical memory: real backing storage plus a frame allocator.
// Storage and cost are deliberately separate concerns — PhysMem moves bytes,
// the Cpu charges for them. RAM powers up zeroed; the host backs a page only
// once the simulation first writes it (see zero_fill_buffer.h).
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/status.h"
#include "src/hw/types.h"
#include "src/hw/zero_fill_buffer.h"

namespace hw {

class PhysMem {
 public:
  explicit PhysMem(uint64_t size_bytes);

  uint64_t size() const { return data_.size(); }
  uint64_t num_frames() const { return size() >> kPageShift; }
  uint64_t frames_allocated() const { return frames_allocated_; }
  uint64_t frames_free() const { return num_frames() - frames_allocated_; }

  // Frame allocation. Frames are identified by their base physical address.
  base::Result<PhysAddr> AllocFrame();
  // Allocate `count` physically contiguous frames (DMA buffers, framebuffer).
  base::Result<PhysAddr> AllocContiguous(uint64_t count);
  void FreeFrame(PhysAddr frame);
  bool IsAllocated(PhysAddr frame) const;

  // Raw storage access. Bounds-checked; out-of-range is a programming error
  // in the simulation and aborts.
  void Read(PhysAddr addr, void* out, uint64_t len) const;
  void Write(PhysAddr addr, const void* src, uint64_t len);
  void Fill(PhysAddr addr, uint8_t byte, uint64_t len);

  uint8_t ReadU8(PhysAddr addr) const;
  uint32_t ReadU32(PhysAddr addr) const;
  void WriteU8(PhysAddr addr, uint8_t v);
  void WriteU32(PhysAddr addr, uint32_t v);

 private:
  ZeroFillBuffer data_;
  std::vector<bool> frame_used_;
  uint64_t next_hint_ = 0;
  uint64_t frames_allocated_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_PHYS_MEM_H_
