#include "src/hw/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/hw/code_layout.h"
#include "tests/props/seeds.h"

namespace hw {
namespace {

std::vector<uint64_t> Fields(const CpuCounters& c) {
  return {c.instructions,  c.cycles,     c.bus_cycles,    c.icache_misses,
          c.dcache_misses, c.tlb_misses, c.data_accesses, c.uncached_accesses};
}

TEST(CodeLayoutTest, RegionsAreStableAndDisjoint) {
  CodeRegion a = CodeLayout::Global().Register("testcomp.alpha", 100);
  CodeRegion b = CodeLayout::Global().Register("testcomp.beta", 50);
  CodeRegion a2 = CodeLayout::Global().Register("testcomp.alpha", 100);
  EXPECT_EQ(a.base, a2.base);
  EXPECT_NE(a.base, b.base);
  // No overlap.
  EXPECT_TRUE(a.base + a.size_bytes() <= b.base || b.base + b.size_bytes() <= a.base);
}

TEST(CodeLayoutTest, ComponentsGetSeparateImages) {
  CodeRegion a = CodeLayout::Global().Register("imgone.f", 10);
  CodeRegion b = CodeLayout::Global().Register("imgtwo.f", 10);
  EXPECT_GE(b.base > a.base ? b.base - a.base : a.base - b.base, 64u * 1024);
}

TEST(CpuTest, ExecuteCountsInstructionsAndCycles) {
  Cpu cpu;
  CodeRegion r = CodeLayout::Global().Register("cputest.basic", 1000);
  cpu.Execute(r);
  auto c = cpu.counters();
  EXPECT_EQ(c.instructions, 1000u);
  EXPECT_GT(c.cycles, 1000u);  // base CPI > 1 plus cold I-cache misses
  EXPECT_GT(c.icache_misses, 0u);
}

TEST(CpuTest, WarmCodeRunsNearBaseCpi) {
  Cpu cpu;
  CodeRegion r = CodeLayout::Global().Register("cputest.warm", 200);
  cpu.Execute(r);  // warm up
  auto before = cpu.counters();
  for (int i = 0; i < 100; ++i) {
    cpu.Execute(r);
  }
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.icache_misses, 0u);
  EXPECT_NEAR(delta.cpi(), cpu.config().base_cpi, 0.01);
}

TEST(CpuTest, DataAccessChargesMissesPerLine) {
  Cpu cpu;
  auto before = cpu.counters();
  cpu.AccessData(0x1000, 64, false);  // two 32-byte lines
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.dcache_misses, 2u);
  EXPECT_EQ(delta.bus_cycles, 2u * cpu.config().bus_per_fill);
  before = cpu.counters();
  cpu.AccessData(0x1000, 64, false);
  delta = cpu.counters() - before;
  EXPECT_EQ(delta.dcache_misses, 0u);
}

TEST(CpuTest, TranslatedAccessChargesTlbWalkOnce) {
  Cpu cpu;
  auto before = cpu.counters();
  cpu.AccessTranslated(0x40001000, 0x9000, 0x200000, 4, false);
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.tlb_misses, 1u);
  before = cpu.counters();
  cpu.AccessTranslated(0x40001004, 0x9004, 0x200000, 4, false);
  delta = cpu.counters() - before;
  EXPECT_EQ(delta.tlb_misses, 0u);
}

// A user chunk counts one data access per line-sized step, however many
// lines an unaligned step touches, and one for the PTE read on a TLB miss.
TEST(CpuTest, TranslatedAccessCountsOneDataAccessPerStep) {
  Cpu cpu;
  const auto before = cpu.counters();
  // 64 bytes from 16 bytes into a line: two steps over three lines.
  cpu.AccessTranslated(0x40001010, 0x9010, 0x200000, 64, false);
  const auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.tlb_misses, 1u);
  EXPECT_EQ(delta.data_accesses, 3u);
  EXPECT_EQ(delta.dcache_misses, 4u);  // the PTE's line and three data lines
}

TEST(CpuTest, TlbFlushForcesRefill) {
  Cpu cpu;
  cpu.AccessTranslated(0x40001000, 0x9000, 0x200000, 4, false);
  cpu.FlushTlb();
  auto before = cpu.counters();
  cpu.AccessTranslated(0x40001000, 0x9000, 0x200000, 4, false);
  EXPECT_EQ((cpu.counters() - before).tlb_misses, 1u);
}

TEST(CpuTest, UncachedAccessCosts) {
  Cpu cpu;
  auto before = cpu.counters();
  cpu.AccessUncached(0x200000000ull, 4, true);
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.uncached_accesses, 1u);
  EXPECT_EQ(delta.cycles, cpu.config().uncached_cycles);
  EXPECT_EQ(delta.bus_cycles, cpu.config().bus_per_uncached);
}

TEST(CpuTest, CyclesNsConversionRoundTrips) {
  Cpu cpu;  // 133 MHz
  EXPECT_EQ(cpu.CyclesToNs(133), 1000u);
  EXPECT_EQ(cpu.NsToCycles(1000), 133u);
}

TEST(CpuTest, PartialExecutionRefetchesOnlyRegionLines) {
  Cpu cpu;
  CodeRegion r = CodeLayout::Global().Register("cputest.copyloop", 16);
  cpu.Execute(r);
  auto before = cpu.counters();
  // Simulate a copy loop: 10000 instructions through a 16-instruction body.
  cpu.ExecuteInstructions(r, 10000);
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.instructions, 10000u);
  EXPECT_EQ(delta.icache_misses, 0u);  // body stays resident
}

// One AccessTranslated per in-page chunk must cost exactly what one call per
// line-sized step from vaddr costs: same counters, same TLB statistics, and
// the same AccessData calls, in the same order, seen by the access observer.
TEST(CpuTest, ChunkedTranslatedAccessMatchesPerStep) {
  using AccessLog = std::vector<std::tuple<PhysAddr, uint32_t, bool>>;
  for (const uint64_t seed : props::SeedsUnderTest()) {
    Cpu chunked;
    Cpu stepped;
    AccessLog chunked_log;
    AccessLog stepped_log;
    chunked.set_access_observer([&chunked_log](PhysAddr pa, uint32_t size, bool write) {
      chunked_log.emplace_back(pa, size, write);
    });
    stepped.set_access_observer([&stepped_log](PhysAddr pa, uint32_t size, bool write) {
      stepped_log.emplace_back(pa, size, write);
    });
    const uint32_t line = chunked.config().dcache.line_bytes;
    base::Rng rng(seed);
    for (int i = 0; i < 3000; ++i) {
      if (rng.NextBelow(100) == 0) {
        chunked.FlushTlb();
        stepped.FlushTlb();
      }
      // 96 pages against a 64-entry TLB, so lookups miss and evict; half the
      // chunks start on a line boundary, half anywhere in the page.
      const uint64_t vpn = 0x40000 + rng.NextBelow(96);
      const uint64_t offset = rng.NextBool(0.5) ? rng.NextBelow(kPageSize / line) * line
                                                : rng.NextBelow(kPageSize);
      const uint64_t room = kPageSize - offset;
      const uint32_t size =
          static_cast<uint32_t>(1 + rng.NextBelow(rng.NextBool(0.5) ? std::min<uint64_t>(room, 64)
                                                                    : room));
      const VirtAddr va = (vpn << kPageShift) + offset;
      // Frames alias, so the D-cache sees reuse across pages.
      const PhysAddr pa = ((0x100 + vpn % 48) << kPageShift) + offset;
      const PhysAddr pte = 0x200000 + vpn * 4;
      const bool write = rng.NextBool(0.3);
      chunked.AccessTranslated(va, pa, pte, size, write);
      for (uint32_t o = 0; o < size; o += line) {
        stepped.AccessTranslated(va + o, pa + o, pte, std::min(line, size - o), write);
      }
    }
    EXPECT_EQ(Fields(chunked.counters()), Fields(stepped.counters())) << "seed=" << seed;
    EXPECT_EQ(chunked.tlb_stats().accesses, stepped.tlb_stats().accesses) << "seed=" << seed;
    EXPECT_EQ(chunked.tlb_stats().misses, stepped.tlb_stats().misses) << "seed=" << seed;
    EXPECT_EQ(chunked.tlb_stats().flushes, stepped.tlb_stats().flushes) << "seed=" << seed;
    EXPECT_EQ(chunked_log, stepped_log) << "seed=" << seed;
  }
}

// One AccessCopy must cost exactly what the copy loop it replaced cost: per
// line-sized step, an AccessData of the source, then one of the destination.
// Same counters (data_accesses too), D-cache statistics and observer calls.
TEST(CpuTest, CopyMatchesPerStepAccessData) {
  using AccessLog = std::vector<std::tuple<PhysAddr, uint32_t, bool>>;
  for (const uint64_t seed : props::SeedsUnderTest()) {
    Cpu copied;
    Cpu stepped;
    AccessLog copied_log;
    AccessLog stepped_log;
    copied.set_access_observer([&copied_log](PhysAddr pa, uint32_t size, bool write) {
      copied_log.emplace_back(pa, size, write);
    });
    stepped.set_access_observer([&stepped_log](PhysAddr pa, uint32_t size, bool write) {
      stepped_log.emplace_back(pa, size, write);
    });
    const CacheConfig& dcache = copied.config().dcache;
    const uint32_t line = dcache.line_bytes;
    // Addresses one way apart share a set.
    const uint64_t way = dcache.size_bytes / dcache.ways;
    const auto both_access = [&](PhysAddr pa, uint32_t size, bool write) {
      copied.AccessData(pa, size, write);
      stepped.AccessData(pa, size, write);
    };
    base::Rng rng(seed);
    // Buffers start anywhere in a 32 KB window, half on a line boundary.
    const auto buffer = [&] {
      return 0x100000 + (rng.NextBool(0.5) ? rng.NextBelow(32 * 1024 / line) * line
                                           : rng.NextBelow(32 * 1024));
    };
    for (int i = 0; i < 1500; ++i) {
      if (rng.NextBelow(30) == 0) {
        copied.FlushDcache();
        stepped.FlushDcache();
      }
      // Lengths of 1 to 8192 bytes, half of them at most five lines.
      const uint64_t len = 1 + rng.NextBelow(rng.NextBool(0.5) ? 8192 : 5 * line);
      const PhysAddr src = buffer();
      PhysAddr dst = buffer();
      switch (rng.NextBelow(4)) {
        case 0:
          dst = src;  // the zero-fill charge of a page fault
          break;
        case 1:
          // The destination shares the source's sets, and a third line,
          // dirty half the time, is already resident in each of them.
          dst = src + way;
          for (uint64_t off = 0; off < len + line; off += line) {
            both_access(src + 2 * way + off, line, rng.NextBool(0.5));
          }
          break;
        default:
          break;
      }
      // Some unrelated traffic, the same on both.
      for (uint64_t n = rng.NextBelow(4); n > 0; --n) {
        both_access(buffer(), static_cast<uint32_t>(1 + rng.NextBelow(2 * line)),
                    rng.NextBool(0.3));
      }
      copied.AccessCopy(src, dst, len);
      for (uint64_t off = 0; off < len; off += line) {
        const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(line, len - off));
        stepped.AccessData(src + off, chunk, /*write=*/false);
        stepped.AccessData(dst + off, chunk, /*write=*/true);
      }
      ASSERT_EQ(Fields(copied.counters()), Fields(stepped.counters()))
          << "seed=" << seed << " copy " << i << " src " << src << " dst " << dst << " len "
          << len;
    }
    EXPECT_EQ(copied.dcache_stats().accesses, stepped.dcache_stats().accesses) << "seed=" << seed;
    EXPECT_EQ(copied.dcache_stats().misses, stepped.dcache_stats().misses) << "seed=" << seed;
    EXPECT_EQ(copied.dcache_stats().writebacks, stepped.dcache_stats().writebacks)
        << "seed=" << seed;
    EXPECT_EQ(copied_log, stepped_log) << "seed=" << seed;
  }
}

// ExecuteInstructions against a line-by-line reference: the fetch count comes
// from division, every fetch is one Cache::Access, and the base cost uses the
// same fractional-CPI accumulator.
TEST(CpuTest, RegionWalkMatchesPerLineFetches) {
  // 13 instructions are 52 bytes, not a multiple of the line; two regions hop
  // through their text with sparsity 3; bases need not be line-aligned. Calls
  // draw up to three times a region's instructions, so some run past it.
  const CodeRegion regions[] = {
      {.base = 0x10000000, .instructions = 13, .sparsity = 1},
      {.base = 0x10000404, .instructions = 40, .sparsity = 3},
      {.base = 0x10002000, .instructions = 200, .sparsity = 1},
      {.base = 0x10004010, .instructions = 77, .sparsity = 3},
      {.base = 0x10006000, .instructions = 1, .sparsity = 2},
  };
  for (const uint64_t seed : props::SeedsUnderTest()) {
    Cpu cpu;
    const CpuConfig& config = cpu.config();
    const uint32_t line = config.icache.line_bytes;
    Cache ref(config.icache);
    CpuCounters want;
    double frac = 0.0;
    std::vector<std::pair<uint64_t, uint64_t>> got_calls;
    std::vector<std::pair<uint64_t, uint64_t>> want_calls;
    cpu.set_execute_observer([&got_calls](const CodeRegion&, uint64_t, uint64_t cycles,
                                          uint64_t misses) {
      got_calls.emplace_back(cycles, misses);
    });
    base::Rng rng(seed);
    for (int i = 0; i < 5000; ++i) {
      const CodeRegion& r = regions[rng.NextBelow(std::size(regions))];
      const uint64_t n = rng.NextBelow(3ull * r.instructions + 1);
      cpu.ExecuteInstructions(r, n);
      if (n == 0) {
        continue;
      }
      frac += static_cast<double>(n) * config.base_cpi;
      const uint64_t whole = static_cast<uint64_t>(frac);
      frac -= static_cast<double>(whole);
      const uint64_t bytes = std::min<uint64_t>(n, r.instructions) * kBytesPerInstruction;
      uint64_t misses = 0;
      for (uint64_t f = 0; f < (bytes + line - 1) / line; ++f) {
        misses += ref.Access((r.base / line + f * r.sparsity) * line, false).hit ? 0 : 1;
      }
      want.instructions += n;
      want.cycles += whole + misses * config.icache_miss_cycles;
      want.bus_cycles += misses * config.bus_per_fill;
      want.icache_misses += misses;
      want_calls.emplace_back(whole + misses * config.icache_miss_cycles, misses);
    }
    EXPECT_EQ(Fields(cpu.counters()), Fields(want)) << "seed=" << seed;
    EXPECT_EQ(cpu.icache_stats().accesses, ref.stats().accesses) << "seed=" << seed;
    EXPECT_EQ(got_calls, want_calls) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace hw
