// Causal request tracing tour: a UNIX read() crossing three servers —
// personality process -> file server -> user-level disk driver — captured
// as one causal tree with per-hop attribution (client send / port queue
// wait / server handler / reply return) and the critical path marked.
//
//   $ ./trace_request [out.json]
//
// Writes the Chrome trace (chrome://tracing, Perfetto) to out.json
// (default trace_request.json) and the request-tree report next to it
// (out.json.trees.txt); the report is also printed below.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/base/log.h"
#include "src/drv/disk_driver.h"
#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mk/trace/exporters.h"
#include "src/pers/unixp/unix.h"
#include "src/svc/fs/file_server.h"

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "trace_request.json";
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  kernel.tracer().Enable();  // host-side bookkeeping: charges no simulated cycles

  // --- Three servers under the application -------------------------------------
  // Disk driver (user-level, interrupt-driven) on its own task.
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(
      std::make_unique<hw::Disk>("disk0", 3, hw::Disk::Geometry{.sectors = 64 * 1024})));
  mk::Task* driver_task = kernel.CreateTask("disk-driver");
  drv::DiskDriver driver(kernel, driver_task, disk, nullptr);

  // File server on its own task, backed by the driver over RPC.
  mk::Task* fs_task = kernel.CreateTask("file-server");
  drv::RpcBlockStore store(driver.GrantTo(*fs_task), disk->num_sectors());
  svc::FileServer fs(kernel, fs_task);
  // A deliberately tiny cache so the traced read() misses and must take the
  // third hop to the disk driver.
  WPOS_CHECK(fs.AddVolume("/", &store, svc::PfsKind::kHpfs, 65536, 16) == base::Status::kOk);
  fs.StartMkfs();

  // UNIX personality process as the application.
  pers::UnixPersonality unix_pers(kernel, fs);
  pers::UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("cat", [&](mk::Env& env) {
    fs.AwaitMkfs(env);
    char block[1024];
    std::memset(block, 'x', sizeof(block));
    auto fd = proc->Open(env, "/data.bin", pers::kOCreat | pers::kORdWr);
    WPOS_CHECK(fd.ok());
    for (int i = 0; i < 32; ++i) {
      WPOS_CHECK(proc->Write(env, *fd, block, sizeof(block)).ok());
    }
    WPOS_CHECK(proc->Lseek(env, *fd, 0, 0).ok());
    // The traced read(): unix.read -> file-server RPC -> disk-driver RPC.
    auto got = proc->Read(env, *fd, block, sizeof(block));
    WPOS_CHECK(got.ok());
    std::printf("read() returned %u bytes through 3 servers\n", *got);
    WPOS_CHECK(proc->Close(env, *fd) == base::Status::kOk);
    // Orderly shutdown so kernel.Run() returns.
    fs.Stop();
    driver.Stop();
    kernel.TerminateTask(driver_task);
  });
  kernel.Run();

  // --- Export ------------------------------------------------------------------
  std::ofstream chrome(out);
  WPOS_CHECK(static_cast<bool>(chrome)) << "cannot write " << out;
  mk::trace::WriteChromeTrace(chrome, kernel);
  std::ofstream trees(out + ".trees.txt");
  WPOS_CHECK(static_cast<bool>(trees)) << "cannot write " << out << ".trees.txt";
  mk::trace::WriteRequestTrees(trees, kernel);
  std::printf("chrome trace -> %s, request trees -> %s.trees.txt\n\n", out.c_str(),
              out.c_str());
  mk::trace::WriteRequestTrees(std::cout, kernel);
  return 0;
}
