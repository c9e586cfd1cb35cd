// CPU cost model.
//
// The Cpu does not interpret instructions; it *accounts* for them. Kernel,
// server and stub code is instrumented with code regions (see code_layout.h)
// and explicit data accesses. The Cpu runs those through Pentium-like split
// I/D caches and a TLB and accumulates the counters the paper's Table 2
// reports: instructions, cycles, bus cycles (plus the miss breakdowns used in
// the paper's analysis of where the RPC overhead comes from).
//
// Defaults approximate a 133 MHz Pentium (P54C): 8 KB 2-way I-cache, 8 KB
// 2-way D-cache, 32-byte lines, 64-entry TLB, 64-bit bus.
#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/hw/cache.h"
#include "src/hw/code_layout.h"
#include "src/hw/tlb.h"
#include "src/hw/types.h"

namespace hw {

struct CpuConfig {
  uint64_t mhz = 133;
  // Cycles per instruction when everything hits; Pentium dual-issue code
  // averaged a bit above 1.
  double base_cpi = 1.15;
  uint32_t icache_miss_cycles = 12;   // line fill latency from DRAM
  uint32_t dcache_miss_cycles = 12;
  uint32_t writeback_cycles = 4;      // extra stall when evicting dirty line
  uint32_t tlb_walk_cycles = 9;       // hardware page walk latency
  uint32_t uncached_cycles = 20;      // device register access
  uint32_t bus_per_fill = 5;          // 4 transfers of 8 bytes + overhead
  uint32_t bus_per_writeback = 5;
  uint32_t bus_per_uncached = 3;
  CacheConfig icache;
  CacheConfig dcache;
  TlbConfig tlb;
};

struct CpuCounters {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t bus_cycles = 0;
  uint64_t icache_misses = 0;
  uint64_t dcache_misses = 0;
  uint64_t tlb_misses = 0;
  uint64_t data_accesses = 0;
  uint64_t uncached_accesses = 0;

  CpuCounters& operator+=(const CpuCounters& rhs) {
    instructions += rhs.instructions;
    cycles += rhs.cycles;
    bus_cycles += rhs.bus_cycles;
    icache_misses += rhs.icache_misses;
    dcache_misses += rhs.dcache_misses;
    tlb_misses += rhs.tlb_misses;
    data_accesses += rhs.data_accesses;
    uncached_accesses += rhs.uncached_accesses;
    return *this;
  }

  CpuCounters operator-(const CpuCounters& rhs) const {
    CpuCounters d;
    d.instructions = instructions - rhs.instructions;
    d.cycles = cycles - rhs.cycles;
    d.bus_cycles = bus_cycles - rhs.bus_cycles;
    d.icache_misses = icache_misses - rhs.icache_misses;
    d.dcache_misses = dcache_misses - rhs.dcache_misses;
    d.tlb_misses = tlb_misses - rhs.tlb_misses;
    d.data_accesses = data_accesses - rhs.data_accesses;
    d.uncached_accesses = uncached_accesses - rhs.uncached_accesses;
    return d;
  }

  double cpi() const {
    return instructions == 0 ? 0.0 : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
};

class Cpu {
 public:
  explicit Cpu(const CpuConfig& config = CpuConfig());

  // --- Execution ------------------------------------------------------------
  // Run all instructions of `region` (fetching its I-cache lines).
  void Execute(const CodeRegion& region) { ExecuteInstructions(region, region.instructions); }

  // Run the first `instructions` of `region`; used for data-dependent paths
  // such as copy loops, where the same few lines of code execute repeatedly.
  void ExecuteInstructions(const CodeRegion& region, uint64_t instructions);

  // --- Data access ----------------------------------------------------------
  // Cached access to physical memory (kernel structures, buffers).
  void AccessData(PhysAddr paddr, uint32_t size, bool write) {
    ++data_accesses_;
    ChargeData(DataLines(paddr, size, write));
    if (access_observer_) {
      access_observer_(paddr, size, write);
    }
  }

  // A copy loop's D-cache traffic for `len` bytes from `src` to `dst`: for
  // each line-sized step from the start, the step's source lines are read,
  // then its destination lines written, exactly as an AccessData of the
  // source and one of the destination per step would, in one call.
  void AccessCopy(PhysAddr src, PhysAddr dst, uint64_t len) {
    const uint32_t line = config_.dcache.line_bytes;
    CacheStats r;
    uint64_t steps = 0;
    for (uint64_t off = 0; off < len; off += line, ++steps) {
      const uint32_t chunk = static_cast<uint32_t>(len - off < line ? len - off : line);
      r += DataLines(src + off, chunk, /*write=*/false);
      r += DataLines(dst + off, chunk, /*write=*/true);
    }
    data_accesses_ += 2 * steps;
    ChargeData(r);
    if (access_observer_) {
      for (uint64_t off = 0; off < len; off += line) {
        const uint32_t chunk = static_cast<uint32_t>(len - off < line ? len - off : line);
        access_observer_(src + off, chunk, /*write=*/false);
        access_observer_(dst + off, chunk, /*write=*/true);
      }
    }
  }

  // Cached access to [vaddr, vaddr + size), within one page, at `paddr`, in
  // line-sized steps from `vaddr`: one TLB lookup counted once per step (a
  // miss installs the entry, so later steps would hit) and, on a miss, a walk
  // of the PTE at `pte_paddr`; then each step's lines, as one AccessData per
  // step would.
  void AccessTranslated(VirtAddr vaddr, PhysAddr paddr, PhysAddr pte_paddr, uint32_t size,
                        bool write) {
    const uint32_t line = config_.dcache.line_bytes;
    const uint64_t steps = size == 0 ? 1 : ((size - 1) >> std::countr_zero(line)) + 1;
    if (!tlb_.Access(PageIndex(vaddr), steps)) {
      cycles_ += config_.tlb_walk_cycles;
      // The hardware walker reads the PTE through the data cache.
      AccessData(pte_paddr, 4, /*write=*/false);
    }
    CacheStats r;
    uint32_t offset = 0;
    do {
      r += DataLines(paddr + offset, size - offset < line ? size - offset : line, write);
      offset += line;
    } while (offset < size);
    data_accesses_ += steps;
    ChargeData(r);
    if (access_observer_) {
      offset = 0;
      do {
        access_observer_(paddr + offset, size - offset < line ? size - offset : line, write);
        offset += line;
      } while (offset < size);
    }
  }

  // Uncached device-register access.
  void AccessUncached(PhysAddr paddr, uint32_t size, bool write);

  // --- Control --------------------------------------------------------------
  void FlushTlb() { tlb_.Flush(); }
  // Write back and invalidate the D-cache (the write-backs count in
  // dcache_stats(); no cycles are charged), so the next accesses find
  // empty sets.
  void FlushDcache() { dcache_.Flush(); }

  // Advance time without executing (idle waiting for a device).
  void AdvanceCycles(Cycles n) { cycles_ += n; }

  // Extra stall cycles from a modelled microarchitectural event (e.g. the
  // fixed privilege-switch cost of a trap, pipeline drain on interrupts).
  void Stall(Cycles n) { cycles_ += n; }

  // Bus transactions that bypass the caches (trap frames, descriptor loads);
  // costs bus bandwidth but overlaps with the pipeline stall already charged.
  void BusTransactions(uint32_t n) { bus_cycles_ += n; }

  // --- Observation ----------------------------------------------------------
  CpuCounters counters() const;
  Cycles cycles() const { return cycles_; }
  const CpuConfig& config() const { return config_; }
  const CacheStats& icache_stats() const { return icache_.stats(); }
  const CacheStats& dcache_stats() const { return dcache_.stats(); }
  const TlbStats& tlb_stats() const { return tlb_.stats(); }

  uint64_t CyclesToNs(Cycles c) const { return c * 1000ull / config_.mhz; }
  Cycles NsToCycles(uint64_t ns) const { return ns * config_.mhz / 1000ull; }

  // Host-side observer called after each ExecuteInstructions with the
  // per-call deltas; used by the tracer's flat profiler. The observer must
  // not call back into the Cpu — it observes costs, it does not add any.
  using ExecuteObserver = std::function<void(const CodeRegion& region, uint64_t instructions,
                                             uint64_t cycles, uint64_t icache_misses)>;
  void set_execute_observer(ExecuteObserver observer) { execute_observer_ = std::move(observer); }

  // Host-side observer called once per data access with its footprint
  // (address, size, direction): per AccessData, and per step of an
  // AccessCopy or AccessTranslated, in order, after that call's cache walk.
  // Used by the concurrency checker's race detector. Same contract as the
  // execute observer: it observes, it never adds cost or calls back into
  // the Cpu.
  using AccessObserver = std::function<void(PhysAddr paddr, uint32_t size, bool write)>;
  void set_access_observer(AccessObserver observer) { access_observer_ = std::move(observer); }

 private:
  // Walks the D-cache lines of [paddr, paddr + size), at least one line.
  CacheStats DataLines(PhysAddr paddr, uint32_t size, bool write) {
    const int shift = std::countr_zero(config_.dcache.line_bytes);
    const PhysAddr last = paddr + (size == 0 ? 0 : size - 1);
    return dcache_.AccessLines(paddr, (last >> shift) - (paddr >> shift) + 1, 1, write);
  }

  // The one D-cache charge: stall and bus cycles for misses and write-backs.
  void ChargeData(const CacheStats& r) {
    cycles_ += r.misses * config_.dcache_miss_cycles + r.writebacks * config_.writeback_cycles;
    bus_cycles_ += r.misses * config_.bus_per_fill + r.writebacks * config_.bus_per_writeback;
  }

  CpuConfig config_;
  Cache icache_;
  Cache dcache_;
  Tlb tlb_;

  uint64_t instructions_ = 0;
  Cycles cycles_ = 0;
  uint64_t bus_cycles_ = 0;
  uint64_t data_accesses_ = 0;
  uint64_t uncached_accesses_ = 0;
  double cycle_frac_ = 0.0;  // fractional-CPI accumulator

  ExecuteObserver execute_observer_;
  AccessObserver access_observer_;
};

}  // namespace hw

#endif  // SRC_HW_CPU_H_
