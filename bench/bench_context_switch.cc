// Reproduces the conclusion's architectural claim: "operating systems whose
// paradigm is message passing and context switching, especially address
// space switching, are a poor match for the characteristics of today's
// processing engines which build up and maintain state internally as they
// execute."
//
// Two threads ping-pong through kernel semaphores, each touching a working
// set of W bytes between switches. Same-task switches keep the TLB; cross-
// task switches flush it and evict each other's cache state — the cost per
// switch grows with the working set that must be rebuilt.
#include "src/base/log.h"

#include <cstdio>
#include <string>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "src/hw/machine.h"
#include "src/mk/kernel.h"

namespace {

constexpr int kVolleys = 300;
const uint64_t kWorkingSets[] = {0, 2048, 8192, 32768};

struct Cost {
  double cycles_per_switch = 0;
  double tlb_misses_per_switch = 0;
  double cache_misses_per_switch = 0;
};

Cost Measure(bool separate_tasks, uint64_t working_set,
             const std::string& trace_path = std::string()) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  bench::ArmTrace(kernel, trace_path);
  mk::Task* task_a = kernel.CreateTask("a");
  mk::Task* task_b = separate_tasks ? kernel.CreateTask("b") : task_a;
  auto sem_a = kernel.SemCreate(0);
  auto sem_b = kernel.SemCreate(0);
  WPOS_CHECK(sem_a.ok() && sem_b.ok());
  Cost cost;

  auto body = [&](mk::Task* task, uint32_t wait_sem, uint32_t post_sem, bool measuring) {
    return [&kernel, task, wait_sem, post_sem, working_set, measuring, &cost](mk::Env& env) {
      hw::VirtAddr ws = 0;
      if (working_set > 0) {
        auto mem = kernel.VmAllocate(*task, hw::PageRound(working_set));
        WPOS_CHECK(mem.ok());
        ws = *mem;
        WPOS_CHECK(env.Touch(ws, working_set, true) == base::Status::kOk);
      }
      // Warmup volleys.
      for (int i = 0; i < 30; ++i) {
        WPOS_CHECK(kernel.SemWait(wait_sem) == base::Status::kOk);
        if (working_set > 0) {
          (void)env.Touch(ws, working_set, false);
        }
        WPOS_CHECK(kernel.SemSignal(post_sem) == base::Status::kOk);
      }
      hw::CpuCounters c0;
      if (measuring) {
        c0 = kernel.Counters();
      }
      for (int i = 0; i < kVolleys; ++i) {
        WPOS_CHECK(kernel.SemWait(wait_sem) == base::Status::kOk);
        if (working_set > 0) {
          (void)env.Touch(ws, working_set, false);
        }
        WPOS_CHECK(kernel.SemSignal(post_sem) == base::Status::kOk);
      }
      if (measuring) {
        const hw::CpuCounters d = kernel.Counters() - c0;
        // Each volley is two switches (there and back).
        cost.cycles_per_switch = static_cast<double>(d.cycles) / (2.0 * kVolleys);
        cost.tlb_misses_per_switch = static_cast<double>(d.tlb_misses) / (2.0 * kVolleys);
        cost.cache_misses_per_switch =
            static_cast<double>(d.icache_misses + d.dcache_misses) / (2.0 * kVolleys);
      }
    };
  };
  kernel.CreateThread(task_a, "ping", body(task_a, *sem_a, *sem_b, true));
  kernel.CreateThread(task_b, "pong", body(task_b, *sem_b, *sem_a, false));
  // Kick off the volley.
  kernel.CreateThread(task_a, "starter",
                      [&](mk::Env& env) { WPOS_CHECK(kernel.SemSignal(*sem_a) == base::Status::kOk); });
  kernel.Run();
  bench::ExportTrace(kernel, trace_path);
  return cost;
}

void PrintTable(bench::JsonReport* report, const std::string& trace_path) {
  std::printf("\n=== Context/address-space switch cost vs working set ===\n");
  std::printf("%12s | %12s %8s %8s | %12s %8s %8s | %7s\n", "working set", "same-task cyc",
              "tlb", "cache", "cross-task cyc", "tlb", "cache", "penalty");
  bool first = true;
  for (uint64_t ws : kWorkingSets) {
    // `--trace` captures the first cross-task run of the sweep.
    const Cost same = Measure(false, ws);
    const Cost cross = Measure(true, ws, first ? trace_path : std::string());
    first = false;
    std::printf("%10llu B | %12.0f %8.1f %8.1f | %12.0f %8.1f %8.1f | %6.2fx\n",
                static_cast<unsigned long long>(ws), same.cycles_per_switch,
                same.tlb_misses_per_switch, same.cache_misses_per_switch,
                cross.cycles_per_switch, cross.tlb_misses_per_switch,
                cross.cache_misses_per_switch,
                cross.cycles_per_switch / same.cycles_per_switch);
    const std::string prefix = "ws" + std::to_string(ws);
    report->Add(prefix + ".same_task_cycles", same.cycles_per_switch);
    report->Add(prefix + ".cross_task_cycles", cross.cycles_per_switch);
    report->Add(prefix + ".cross_task_penalty",
                cross.cycles_per_switch / same.cycles_per_switch);
  }
  std::printf("paper: address-space switching discards the state modern processors build\n"
              "up; the penalty grows with the working set rebuilt after each switch.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);  // parked servers at halt are expected
  bench::JsonReport report;
  PrintTable(&report, trace_path);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  return 0;
}
