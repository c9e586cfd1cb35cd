// System assemblies used by the benchmarks: the full multi-server Workplace
// OS stack and the monolithic comparator, both on the same simulated
// hardware, plus the Table 1 workload suite running against an abstract
// OS/2-ish API so identical programs drive both systems.
#ifndef BENCH_LIB_SYSTEMS_H_
#define BENCH_LIB_SYSTEMS_H_

#include <functional>
#include <memory>
#include <string>

#include "src/baseline/monolithic.h"
#include "src/drv/disk_driver.h"
#include "src/drv/fb_driver.h"
#include "src/drv/resource_manager.h"
#include "src/hw/framebuffer.h"
#include "src/mk/kernel.h"
#include "src/mks/naming/name_server.h"
#include "src/mks/pager/default_pager.h"
#include "src/pers/os2/os2.h"
#include "src/pers/os2/pm.h"
#include "src/svc/fs/file_server.h"
#include "src/svc/fs/volume.h"

namespace bench {

// The OS/2-visible API surface the workloads program against.
class Os2ApiBase {
 public:
  virtual ~Os2ApiBase() = default;

  virtual base::Result<uint64_t> Open(mk::Env& env, const std::string& path, uint32_t flags) = 0;
  virtual base::Status Close(mk::Env& env, uint64_t handle) = 0;
  virtual base::Result<uint32_t> Read(mk::Env& env, uint64_t h, uint64_t off, void* out,
                                      uint32_t len) = 0;
  virtual base::Result<uint32_t> Write(mk::Env& env, uint64_t h, uint64_t off, const void* data,
                                       uint32_t len) = 0;
  virtual base::Status Mkdir(mk::Env& env, const std::string& path) = 0;
  virtual base::Status Unlink(mk::Env& env, const std::string& path) = 0;
  virtual base::Result<size_t> DirCount(mk::Env& env, const std::string& path) = 0;

  virtual base::Result<uint32_t> WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w,
                                           uint32_t h) = 0;
  virtual base::Status WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg, uint32_t p1,
                               uint32_t p2) = 0;
  // Blocks for the next message; returns msg id.
  virtual base::Result<uint32_t> WinGet(mk::Env& env, uint32_t hwnd) = 0;
  virtual base::Status FillRect(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                                uint32_t h, uint8_t color) = 0;
  virtual base::Status BitBlt(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                              uint32_t h) = 0;
  virtual base::Status WinSwitch(mk::Env& env, uint32_t hwnd) = 0;
};

// Full Workplace OS: microkernel + microkernel services + drivers + shared
// services + OS/2 personality. The paper's PowerPC box: 64 MB.
class WposSystem {
 public:
  WposSystem();
  ~WposSystem();

  mk::Kernel& kernel() { return *kernel_; }
  hw::Machine& machine() { return *machine_; }
  pers::Os2Process& process() { return *process_; }
  pers::PmSession& pm() { return *pm_session_; }
  svc::FileServer& file_server() { return *file_server_; }
  mks::NameServer& name_server() { return *name_server_; }

  // Runs `body` as the OS/2 application's main thread and drives the machine
  // to completion. Returns the count of threads still blocked (servers
  // normally remain parked; they are excluded).
  void RunApp(std::function<void(mk::Env&)> body);
  // Builds the Os2ApiBase view over this system's personality.
  std::unique_ptr<Os2ApiBase> MakeApi();

 private:
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  hw::Disk* disk_ = nullptr;
  hw::Framebuffer* fb_dev_ = nullptr;
  std::unique_ptr<drv::ResourceManager> rm_;
  std::unique_ptr<drv::DiskDriver> disk_driver_;
  std::unique_ptr<drv::RpcBlockStore> block_store_;
  std::unique_ptr<drv::FbDriver> fb_driver_;
  std::unique_ptr<svc::FileServer> file_server_;
  std::unique_ptr<mks::NameServer> name_server_;
  std::unique_ptr<mks::DefaultPager> pager_;
  std::unique_ptr<pers::Os2Server> os2_server_;
  std::unique_ptr<pers::Os2Process> process_;
  std::unique_ptr<pers::PmDesktop> desktop_;
  std::unique_ptr<pers::PmSession> pm_session_;
};

// Monolithic OS/2 comparator. The paper's Pentium box: 16 MB.
class MonoSystem {
 public:
  MonoSystem();
  ~MonoSystem();

  mk::Kernel& kernel() { return *kernel_; }
  hw::Machine& machine() { return *machine_; }
  baseline::MonolithicOs& os() { return *os_; }

  void RunApp(std::function<void(mk::Env&)> body);
  std::unique_ptr<Os2ApiBase> MakeApi();
  mk::Task& app_task() { return *app_task_; }
  hw::VirtAddr vram() const { return vram_; }

 private:
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  hw::Disk* disk_ = nullptr;
  hw::Framebuffer* fb_dev_ = nullptr;
  std::unique_ptr<baseline::KernelDiskStore> store_;
  std::unique_ptr<svc::Volume> volume_;
  std::unique_ptr<baseline::MonolithicOs> os_;
  mk::Task* app_task_ = nullptr;
  hw::VirtAddr vram_ = 0;
  bool formatted_ = false;
};

}  // namespace bench

#endif  // BENCH_LIB_SYSTEMS_H_
