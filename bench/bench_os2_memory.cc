// Reproduces the double-memory-management claim: "The result was essentially
// two memory management systems, with OS/2's built on the microkernel's,
// which, while workable, greatly increased the memory footprint."
//
// An allocation-heavy program runs twice: through the OS/2 commitment-
// oriented layer (eager commit, byte-granular sizes, suballocation metadata)
// and directly against the lazy page-oriented microkernel. Footprint =
// physical frames + bookkeeping; cycles are reported as well.
#include "src/base/log.h"

#include <cstdio>
#include <string>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "src/hw/machine.h"
#include "src/pers/os2/os2_memory.h"

namespace {

struct Footprint {
  uint64_t frames = 0;
  uint64_t metadata_bytes = 0;
  uint64_t cycles = 0;
};

constexpr int kObjects = 64;
constexpr uint64_t kObjectBytes = 6000;  // 1.46 pages: byte-vs-page rounding shows
constexpr uint64_t kTouchedBytes = 512;  // what the program actually uses early

Footprint RunOs2Layer(const std::string& trace_path) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  bench::ArmTrace(kernel, trace_path);
  mk::Task* task = kernel.CreateTask("os2app");
  pers::Os2Memory memory(kernel, *task);
  Footprint fp;
  kernel.CreateThread(task, "main", [&](mk::Env& env) {
    const uint64_t f0 = machine.mem().frames_allocated();
    const uint64_t c0 = kernel.cpu().cycles();
    std::vector<hw::VirtAddr> objs;
    for (int i = 0; i < kObjects; ++i) {
      auto mem = memory.AllocMem(env, kObjectBytes, pers::kPagCommit);
      WPOS_CHECK(mem.ok());
      objs.push_back(*mem);
      // Suballocate a few pieces (OS/2 heap style) and touch a little.
      (void)memory.SubAlloc(env, *mem, 128);
      (void)memory.SubAlloc(env, *mem, 256);
      WPOS_CHECK(kernel.UserTouch(*task, *mem, kTouchedBytes, true) == base::Status::kOk);
    }
    fp.cycles = kernel.cpu().cycles() - c0;
    fp.frames = machine.mem().frames_allocated() - f0;
    fp.metadata_bytes = memory.metadata_bytes();
  });
  kernel.Run();
  bench::ExportTrace(kernel, trace_path);
  return fp;
}

Footprint RunRawKernel() {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  mk::Task* task = kernel.CreateTask("rawapp");
  Footprint fp;
  kernel.CreateThread(task, "main", [&](mk::Env& env) {
    const uint64_t f0 = machine.mem().frames_allocated();
    const uint64_t c0 = kernel.cpu().cycles();
    for (int i = 0; i < kObjects; ++i) {
      auto mem = kernel.VmAllocate(*task, kObjectBytes);
      WPOS_CHECK(mem.ok());
      WPOS_CHECK(kernel.UserTouch(*task, *mem, kTouchedBytes, true) == base::Status::kOk);
    }
    fp.cycles = kernel.cpu().cycles() - c0;
    fp.frames = machine.mem().frames_allocated() - f0;
    fp.metadata_bytes = 0;  // the microkernel keeps page tables only
  });
  kernel.Run();
  return fp;
}

void PrintFootprint(const Footprint& os2, const Footprint& raw, bench::JsonReport* report) {
  report->Add("os2.frames", static_cast<double>(os2.frames));
  report->Add("raw.frames", static_cast<double>(raw.frames));
  report->Add("os2.metadata_bytes", static_cast<double>(os2.metadata_bytes));
  report->Add("os2.alloc_cycles", static_cast<double>(os2.cycles));
  report->Add("raw.alloc_cycles", static_cast<double>(raw.cycles));
  report->Add("footprint.ratio", static_cast<double>(os2.frames) / static_cast<double>(raw.frames));
  std::printf("\n=== OS/2 double memory management: footprint ===\n");
  std::printf("(%d objects of %llu bytes, %llu bytes touched each)\n", kObjects,
              static_cast<unsigned long long>(kObjectBytes),
              static_cast<unsigned long long>(kTouchedBytes));
  std::printf("%-32s %14s %14s\n", "", "OS/2-on-mk", "raw microkernel");
  std::printf("%-32s %14llu %14llu\n", "physical frames consumed",
              static_cast<unsigned long long>(os2.frames),
              static_cast<unsigned long long>(raw.frames));
  std::printf("%-32s %14llu %14llu\n", "server metadata bytes",
              static_cast<unsigned long long>(os2.metadata_bytes),
              static_cast<unsigned long long>(raw.metadata_bytes));
  std::printf("%-32s %14llu %14llu\n", "allocation cycles",
              static_cast<unsigned long long>(os2.cycles),
              static_cast<unsigned long long>(raw.cycles));
  std::printf("%-32s %14.2fx\n", "footprint increase",
              static_cast<double>(os2.frames) / static_cast<double>(raw.frames));
  std::printf("paper: eager commitment + retained byte sizes on top of lazy page-oriented\n"
              "memory \"greatly increased the memory footprint\".\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);  // parked servers at halt are expected
  bench::JsonReport report;
  PrintFootprint(RunOs2Layer(trace_path), RunRawKernel(), &report);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  return 0;
}
