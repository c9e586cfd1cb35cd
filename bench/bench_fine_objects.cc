// Reproduces the fine-grained-objects evaluation: "having a very large
// number of virtual method calls slowed the system down". Two ablations:
//   1. OODDM TDiskDrive (deep hierarchy, many short virtuals) vs the coarse
//      in-kernel driver, same device programming.
//   2. The fine-grained network stack vs the coarse stack, same packets.
#include "src/base/log.h"

#include <cstdio>
#include <string>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "src/drv/oo/ooddm.h"
#include "src/hw/machine.h"
#include "src/svc/net/stack.h"

namespace {

struct Cost {
  double instructions = 0;
  double cycles = 0;
  double virtual_calls = 0;
};

constexpr int kOps = 200;

template <typename Fn>
Cost Measure(mk::Kernel& kernel, Fn&& op, int warmup = 10) {
  for (int i = 0; i < warmup; ++i) {
    op();
  }
  const hw::CpuCounters c0 = kernel.Counters();
  for (int i = 0; i < kOps; ++i) {
    op();
  }
  const hw::CpuCounters d = kernel.Counters() - c0;
  return {static_cast<double>(d.instructions) / kOps, static_cast<double>(d.cycles) / kOps, 0};
}

void RunDriverAblation(Cost* fine, Cost* coarse, double* fine_virtuals,
                       const std::string& trace_path) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  bench::ArmTrace(kernel, trace_path);
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(std::make_unique<hw::Disk>("d", 3)));
  auto dma = machine.mem().AllocContiguous(1);
  mk::Task* task = kernel.CreateTask("driver-bench");
  kernel.CreateThread(task, "main", [&](mk::Env& env) {
    drv::TDiskDrive fine_drv(kernel, disk, *dma);
    drv::CoarseDiskDriver coarse_drv(kernel, disk, *dma);
    std::vector<uint8_t> buf(hw::Disk::kSectorSize);
    const uint64_t v0 = fine_drv.virtual_calls();
    *fine = Measure(kernel, [&] { (void)fine_drv.ReadBlocks(env, 1, 1, buf.data()); });
    *fine_virtuals = static_cast<double>(fine_drv.virtual_calls() - v0) / (kOps + 10);
    *coarse = Measure(kernel, [&] { (void)coarse_drv.ReadBlocks(env, 1, 1, buf.data()); });
  });
  kernel.Run();
  bench::ExportTrace(kernel, trace_path);
}

void RunStackAblation(Cost* fine, Cost* coarse) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  mk::Task* task = kernel.CreateTask("stack-bench");
  kernel.CreateThread(task, "main", [&](mk::Env& env) {
    svc::FineStack fine_stack(kernel);
    svc::CoarseStack coarse_stack(kernel);
    svc::Datagram d;
    d.dst_port = 7;
    d.payload.assign(512, 0xab);
    svc::Datagram out;
    auto pump = [&](svc::StackEngine& engine) {
      auto frame = engine.Encapsulate(env, d);
      (void)engine.Decapsulate(env, frame.data(), static_cast<uint32_t>(frame.size()), &out);
    };
    *fine = Measure(kernel, [&] { pump(fine_stack); });
    *coarse = Measure(kernel, [&] { pump(coarse_stack); });
  });
  kernel.Run();
}

void PrintAblation(bench::JsonReport* report, const std::string& trace_path) {
  Cost fine_drv, coarse_drv, fine_net, coarse_net;
  double fine_virtuals = 0;
  // `--trace` captures the driver ablation's run (OODDM vs coarse driver).
  RunDriverAblation(&fine_drv, &coarse_drv, &fine_virtuals, trace_path);
  RunStackAblation(&fine_net, &coarse_net);
  report->Add("disk.instr_ratio", fine_drv.instructions / coarse_drv.instructions);
  report->Add("disk.cycle_ratio", fine_drv.cycles / coarse_drv.cycles);
  report->Add("disk.virtual_calls_per_op", fine_virtuals);
  report->Add("net.instr_ratio", fine_net.instructions / coarse_net.instructions);
  report->Add("net.cycle_ratio", fine_net.cycles / coarse_net.cycles);
  std::printf("\n=== Fine-grained objects vs coarse objects ===\n");
  std::printf("%-28s %14s %14s %10s\n", "(per operation)", "fine-grained", "coarse", "ratio");
  std::printf("%-28s %14.0f %14.0f %10.2f\n", "disk driver: instructions", fine_drv.instructions,
              coarse_drv.instructions, fine_drv.instructions / coarse_drv.instructions);
  std::printf("%-28s %14.0f %14.0f %10.2f   (device + data movement included)\n",
              "disk driver: cycles", fine_drv.cycles, coarse_drv.cycles,
              fine_drv.cycles / coarse_drv.cycles);
  std::printf("%-28s %14.0f   (control-path overhead added by the object machinery)\n",
              "disk driver: instr delta", fine_drv.instructions - coarse_drv.instructions);
  std::printf("%-28s %14.1f %14s\n", "disk driver: virtual calls", fine_virtuals, "~0");
  std::printf("%-28s %14.0f %14.0f %10.2f\n", "net stack: instructions", fine_net.instructions,
              coarse_net.instructions, fine_net.instructions / coarse_net.instructions);
  std::printf("%-28s %14.0f %14.0f %10.2f\n", "net stack: cycles", fine_net.cycles,
              coarse_net.cycles, fine_net.cycles / coarse_net.cycles);
  std::printf("paper: fine-grained objects \"exacerbate the performance problems\" and\n"
              "\"increase the complexity\"; MK++-style coarse objects are the recommendation.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);  // parked servers at halt are expected
  bench::JsonReport report;
  PrintAblation(&report, trace_path);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  return 0;
}
