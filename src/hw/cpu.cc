#include "src/hw/cpu.h"

namespace hw {

Cpu::Cpu(const CpuConfig& config)
    : config_(config), icache_(config.icache), dcache_(config.dcache), tlb_(config.tlb) {}

void Cpu::ExecuteInstructions(const CodeRegion& region, uint64_t instructions) {
  if (instructions == 0) {
    return;
  }
  instructions_ += instructions;
  // Base pipeline cost with fractional accumulation so that repeated short
  // paths do not round the CPI away.
  cycle_frac_ += static_cast<double>(instructions) * config_.base_cpi;
  const Cycles whole = static_cast<Cycles>(cycle_frac_);
  cycle_frac_ -= static_cast<double>(whole);

  // Fetch every I-cache line the executed range covers, in one walk. For
  // partial execution beyond the region (copy loops), the same lines
  // re-execute. With sparsity > 1 the dynamic path hops through a larger
  // static body: the same number of line fetches, spread over sparsity times
  // the span.
  const uint64_t bytes =
      (instructions > region.instructions ? region.instructions : instructions) *
      kBytesPerInstruction;
  const uint32_t line = config_.icache.line_bytes;
  const uint64_t fetches = (bytes + line - 1) >> std::countr_zero(line);
  const uint64_t misses =
      icache_.AccessLines(region.base, fetches, region.sparsity, /*write=*/false).misses;
  const Cycles cycles = whole + misses * config_.icache_miss_cycles;
  cycles_ += cycles;
  bus_cycles_ += misses * config_.bus_per_fill;
  if (execute_observer_) {
    execute_observer_(region, instructions, cycles, misses);
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
