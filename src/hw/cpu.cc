#include "src/hw/cpu.h"

namespace hw {

Cpu::Cpu(const CpuConfig& config)
    : config_(config), icache_(config.icache), dcache_(config.dcache), tlb_(config.tlb) {}

void Cpu::ExecuteInstructions(const CodeRegion& region, uint64_t instructions) {
  if (instructions == 0) {
    return;
  }
  const Cycles cycles_before = cycles_;
  const uint64_t imiss_before = icache_.stats().misses;
  instructions_ += instructions;
  // Base pipeline cost with fractional accumulation so that repeated short
  // paths do not round the CPI away.
  cycle_frac_ += static_cast<double>(instructions) * config_.base_cpi;
  const Cycles whole = static_cast<Cycles>(cycle_frac_);
  cycle_frac_ -= static_cast<double>(whole);
  cycles_ += whole;

  // Fetch every I-cache line the executed range covers. For partial
  // execution beyond the region (copy loops), the same lines re-execute.
  // With sparsity > 1 the dynamic path hops through a larger static body:
  // the same number of line fetches, spread over sparsity times the span.
  const uint64_t bytes =
      (instructions > region.instructions ? region.instructions : instructions) *
      kBytesPerInstruction;
  const uint32_t line = config_.icache.line_bytes;
  const uint32_t stride = line * region.sparsity;
  const uint64_t fetches = (bytes + line - 1) / line;
  PhysAddr a = region.base & ~static_cast<PhysAddr>(line - 1);
  for (uint64_t i = 0; i < fetches; ++i) {
    ChargeFetch(a + i * stride);
  }
  if (execute_observer_) {
    execute_observer_(region, instructions, cycles_ - cycles_before,
                      icache_.stats().misses - imiss_before);
  }
}

void Cpu::AccessUncached(PhysAddr paddr, uint32_t size, bool write) {
  ++uncached_accesses_;
  cycles_ += config_.uncached_cycles;
  bus_cycles_ += config_.bus_per_uncached;
}

CpuCounters Cpu::counters() const {
  CpuCounters c;
  c.instructions = instructions_;
  c.cycles = cycles_;
  c.bus_cycles = bus_cycles_;
  c.icache_misses = icache_.stats().misses;
  c.dcache_misses = dcache_.stats().misses;
  c.tlb_misses = tlb_.stats().misses;
  c.data_accesses = data_accesses_;
  c.uncached_accesses = uncached_accesses_;
  return c;
}

}  // namespace hw
