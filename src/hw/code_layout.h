// Simulated code layout.
//
// The cost model does not interpret real machine code. Instead, every
// instrumented function in the kernel, the servers and the user-level stubs
// registers a *code region*: a contiguous range of simulated instruction
// addresses with a fixed instruction count. Executing the function "runs"
// those instructions through the CPU model, which fetches the corresponding
// I-cache lines. Because regions from different components live at different
// simulated addresses (just as the real linker placed the microkernel, the
// stubs and each server at different addresses), a path that spans many
// components has a large unique I-cache footprint — which is precisely the
// effect Table 2 of the paper attributes the RPC slowdown to.
//
// The layout is a process-global singleton: it models the linked images of
// the system, which are shared by every simulated machine in the process.
#ifndef SRC_HW_CODE_LAYOUT_H_
#define SRC_HW_CODE_LAYOUT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/types.h"

namespace hw {

// Average simulated instruction size. 4 bytes models the mostly-32-bit
// encodings of the era's targets (PowerPC exactly; x86 approximately).
inline constexpr uint32_t kBytesPerInstruction = 4;

struct CodeRegion {
  PhysAddr base = 0;
  uint32_t instructions = 0;
  // Static-to-dynamic footprint ratio: a function whose hot path executes N
  // instructions typically spans ~sparsity*N instructions of text (error
  // paths, cold branches, alignment). The I-cache footprint scales with the
  // static text; the instruction count does not.
  uint32_t sparsity = 1;

  uint64_t size_bytes() const {
    return static_cast<uint64_t>(instructions) * kBytesPerInstruction * sparsity;
  }
};

class CodeLayout {
 public:
  static CodeLayout& Global();

  // Registers (or returns the previously registered) region for `name` with
  // `instructions` simulated instructions. Regions are laid out sequentially
  // in registration order, line-aligned, within the image of their component
  // (the prefix of `name` up to the first '.'). Each component image starts
  // at its own 64 KB-aligned base, like a separately linked module.
  CodeRegion Register(const std::string& name, uint32_t instructions, uint32_t sparsity = 1);

  // Reverse lookup: the registered name of the region starting at `base`
  // ("?0x..." if unknown). Used by profilers to label per-region totals.
  std::string NameOf(PhysAddr base) const;

 private:
  std::unordered_map<std::string, CodeRegion> regions_;
  std::unordered_map<PhysAddr, std::string> names_by_base_;
  // Next free address in each component's image (0: image not placed yet).
  std::unordered_map<std::string, PhysAddr> image_next_;
  PhysAddr next_image_base_ = kImageSpaceBase;
  uint64_t image_count_ = 0;

  // Code images live far above simulated RAM so they never collide with data.
  static constexpr PhysAddr kImageSpaceBase = 0x1'0000'0000ull;
  static constexpr uint64_t kImageAlign = 64 * 1024;
};

// Convenience used by instrumented functions:
//   static const hw::CodeRegion kPath = hw::DefineCode("mk.rpc.send", 140);
inline CodeRegion DefineCode(const std::string& name, uint32_t instructions) {
  return CodeLayout::Global().Register(name, instructions);
}

// Kernel/stub text: dense hot path inside a larger function body.
inline constexpr uint32_t kKernelTextSparsity = 3;
inline CodeRegion DefineKernelCode(const std::string& name, uint32_t instructions) {
  return CodeLayout::Global().Register(name, instructions, kKernelTextSparsity);
}

}  // namespace hw

#endif  // SRC_HW_CODE_LAYOUT_H_
