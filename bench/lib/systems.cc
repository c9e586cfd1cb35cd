#include "bench/lib/systems.h"

#include "src/base/log.h"

namespace bench {

namespace {
constexpr uint64_t kWposRam = 64ull * 1024 * 1024;  // the PowerPC 604 box
constexpr uint64_t kMonoRam = 16ull * 1024 * 1024;  // the Pentium box
constexpr uint64_t kDiskSectors = 256 * 1024;       // 128 MB
constexpr uint64_t kFsSectors = 128 * 1024;         // the file system's 64 MB at LBA 0
}  // namespace

// --- WPOS --------------------------------------------------------------------------

WposSystem::WposSystem() {
  machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{.ram_bytes = kWposRam});
  kernel_ = std::make_unique<mk::Kernel>(machine_.get());
  disk_ = static_cast<hw::Disk*>(machine_->AddDevice(
      std::make_unique<hw::Disk>("disk0", 3, hw::Disk::Geometry{.sectors = kDiskSectors})));
  fb_dev_ = new hw::Framebuffer("fb0", machine_.get(), 640, 480);
  machine_->AddDevice(std::unique_ptr<hw::Device>(fb_dev_));

  // Microkernel services.
  mk::Task* mks_task = kernel_->CreateTask("mks");
  name_server_ = std::make_unique<mks::NameServer>(*kernel_, mks_task);

  // Drivers (user-level).
  rm_ = std::make_unique<drv::ResourceManager>(*kernel_);
  mk::Task* disk_task = kernel_->CreateTask("disk-driver");
  disk_driver_ = std::make_unique<drv::DiskDriver>(*kernel_, disk_task, disk_, rm_.get());
  fb_driver_ = std::make_unique<drv::FbDriver>(*kernel_, fb_dev_);

  // File server over the disk driver's RPC service.
  mk::Task* fs_task = kernel_->CreateTask("file-server");
  block_store_ = std::make_unique<drv::RpcBlockStore>(disk_driver_->GrantTo(*fs_task),
                                                      disk_->num_sectors());
  file_server_ = std::make_unique<svc::FileServer>(*kernel_, fs_task);
  WPOS_CHECK(file_server_->AddVolume("/", block_store_.get(), svc::PfsKind::kHpfs, kFsSectors,
                                     2048) == base::Status::kOk);

  // Default pager on its own disk region, the sectors after the file
  // system's (same device, through the host backdoor).
  mk::Task* pager_task = kernel_->CreateTask("default-pager");
  pager_ = std::make_unique<mks::DefaultPager>(
      *kernel_, pager_task,
      std::make_unique<mks::BackdoorBlockStore>(disk_, 300'000, kFsSectors,
                                                kDiskSectors - kFsSectors));

  // OS/2 personality.
  mk::Task* os2_task = kernel_->CreateTask("os2-server");
  os2_server_ = std::make_unique<pers::Os2Server>(*kernel_, os2_task);
  process_ = std::make_unique<pers::Os2Process>(*kernel_, *os2_server_, *file_server_, "app");
  desktop_ = std::make_unique<pers::PmDesktop>(*kernel_, fb_driver_.get());
  auto session = desktop_->Attach(*process_->task());
  WPOS_CHECK(session.ok());
  pm_session_ = std::move(*session);
}

WposSystem::~WposSystem() = default;

void WposSystem::RunApp(std::function<void(mk::Env&)> body) {
  if (!file_server_->formatted()) {
    file_server_->StartMkfs();
  }
  kernel_->CreateThread(process_->task(), "app-main",
                        [this, body = std::move(body)](mk::Env& env) {
    file_server_->AwaitMkfs(env);
    body(env);
  });
  kernel_->Run();
}

// --- Mono --------------------------------------------------------------------------

MonoSystem::MonoSystem() {
  machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{.ram_bytes = kMonoRam});
  kernel_ = std::make_unique<mk::Kernel>(machine_.get());
  disk_ = static_cast<hw::Disk*>(machine_->AddDevice(
      std::make_unique<hw::Disk>("disk0", 3, hw::Disk::Geometry{.sectors = kDiskSectors})));
  fb_dev_ = new hw::Framebuffer("fb0", machine_.get(), 640, 480);
  machine_->AddDevice(std::unique_ptr<hw::Device>(fb_dev_));
  store_ = std::make_unique<baseline::KernelDiskStore>(*kernel_, disk_);
  volume_ = std::make_unique<svc::Volume>(*kernel_, store_.get(), svc::PfsKind::kHpfs, kFsSectors,
                                          2048);
  os_ = std::make_unique<baseline::MonolithicOs>(*kernel_, &volume_->pfs(), fb_dev_);
  app_task_ = kernel_->CreateTask("os2-app", /*app_footprint_instr=*/4096);
  auto vram = os_->MapVram(*app_task_);
  WPOS_CHECK(vram.ok());
  vram_ = *vram;
}

MonoSystem::~MonoSystem() = default;

void MonoSystem::RunApp(std::function<void(mk::Env&)> body) {
  kernel_->CreateThread(app_task_, "app-main", [this, body = std::move(body)](mk::Env& env) {
    if (!formatted_) {
      WPOS_CHECK(volume_->pfs().Format(env) == base::Status::kOk);
      formatted_ = true;
    }
    body(env);
  });
  kernel_->Run();
}

// --- API adapters ----------------------------------------------------------------------

namespace {

class WposApi : public Os2ApiBase {
 public:
  explicit WposApi(WposSystem* sys) : sys_(sys) {}

  base::Result<uint64_t> Open(mk::Env& env, const std::string& path, uint32_t flags) override {
    return sys_->process().DosOpen(env, path, flags);
  }
  base::Status Close(mk::Env& env, uint64_t handle) override {
    return sys_->process().DosClose(env, handle);
  }
  base::Result<uint32_t> Read(mk::Env& env, uint64_t h, uint64_t off, void* out,
                              uint32_t len) override {
    return sys_->process().DosRead(env, h, off, out, len);
  }
  base::Result<uint32_t> Write(mk::Env& env, uint64_t h, uint64_t off, const void* data,
                               uint32_t len) override {
    return sys_->process().DosWrite(env, h, off, data, len);
  }
  base::Status Mkdir(mk::Env& env, const std::string& path) override {
    return sys_->process().DosMkdir(env, path);
  }
  base::Status Unlink(mk::Env& env, const std::string& path) override {
    return sys_->process().DosDelete(env, path);
  }
  base::Result<size_t> DirCount(mk::Env& env, const std::string& path) override {
    auto entries = sys_->process().DosFindAll(env, path);
    if (!entries.ok()) {
      return entries.status();
    }
    return entries->size();
  }
  base::Result<uint32_t> WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w,
                                   uint32_t h) override {
    auto hwnd = sys_->pm().CreateWindow(env, "w", x, y, w, h);
    if (!hwnd.ok()) {
      return hwnd.status();
    }
    return *hwnd;
  }
  base::Status WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg, uint32_t p1,
                       uint32_t p2) override {
    return sys_->pm().PostMsg(env, hwnd, msg, p1, p2);
  }
  base::Result<uint32_t> WinGet(mk::Env& env, uint32_t hwnd) override {
    auto msg = sys_->pm().GetMsg(env, hwnd);
    if (!msg.ok()) {
      return msg.status();
    }
    return msg->msg;
  }
  base::Status FillRect(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                        uint32_t h, uint8_t color) override {
    return sys_->pm().FillRect(env, hwnd, x, y, w, h, color);
  }
  base::Status BitBlt(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                      uint32_t h) override {
    return sys_->pm().BitBlt(env, hwnd, x, y, w, h);
  }
  base::Status WinSwitch(mk::Env& env, uint32_t hwnd) override {
    return sys_->pm().SwitchTo(env, hwnd);
  }

 private:
  WposSystem* sys_;
};

class MonoApi : public Os2ApiBase {
 public:
  explicit MonoApi(MonoSystem* sys) : sys_(sys) {}

  base::Result<uint64_t> Open(mk::Env& env, const std::string& path, uint32_t flags) override {
    return sys_->os().Open(env, path, flags);
  }
  base::Status Close(mk::Env& env, uint64_t handle) override {
    return sys_->os().Close(env, handle);
  }
  base::Result<uint32_t> Read(mk::Env& env, uint64_t h, uint64_t off, void* out,
                              uint32_t len) override {
    return sys_->os().Read(env, h, off, out, len);
  }
  base::Result<uint32_t> Write(mk::Env& env, uint64_t h, uint64_t off, const void* data,
                               uint32_t len) override {
    return sys_->os().Write(env, h, off, data, len);
  }
  base::Status Mkdir(mk::Env& env, const std::string& path) override {
    return sys_->os().Mkdir(env, path);
  }
  base::Status Unlink(mk::Env& env, const std::string& path) override {
    return sys_->os().Unlink(env, path);
  }
  base::Result<size_t> DirCount(mk::Env& env, const std::string& path) override {
    auto entries = sys_->os().ReadDir(env, path);
    if (!entries.ok()) {
      return entries.status();
    }
    return entries->size();
  }
  base::Result<uint32_t> WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w,
                                   uint32_t h) override {
    return sys_->os().WinCreate(env, x, y, w, h);
  }
  base::Status WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg, uint32_t p1,
                       uint32_t p2) override {
    return sys_->os().WinPost(env, hwnd, msg, p1, p2);
  }
  base::Result<uint32_t> WinGet(mk::Env& env, uint32_t hwnd) override {
    auto msg = sys_->os().WinGet(env, hwnd);
    if (!msg.ok()) {
      return msg.status();
    }
    return msg->msg;
  }
  base::Status FillRect(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                        uint32_t h, uint8_t color) override {
    return sys_->os().WinFillRect(env, sys_->app_task(), sys_->vram(), hwnd, x, y, w, h, color);
  }
  base::Status BitBlt(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                      uint32_t h) override {
    return sys_->os().WinBitBlt(env, sys_->app_task(), sys_->vram(), hwnd, x, y, w, h);
  }
  base::Status WinSwitch(mk::Env& env, uint32_t hwnd) override {
    return sys_->os().WinSwitch(env, sys_->app_task(), sys_->vram(), hwnd);
  }

 private:
  MonoSystem* sys_;
};

}  // namespace

std::unique_ptr<Os2ApiBase> WposSystem::MakeApi() { return std::make_unique<WposApi>(this); }
std::unique_ptr<Os2ApiBase> MonoSystem::MakeApi() { return std::make_unique<MonoApi>(this); }

}  // namespace bench
