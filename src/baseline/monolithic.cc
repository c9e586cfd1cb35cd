#include "src/baseline/monolithic.h"

#include "src/base/log.h"

namespace baseline {

namespace {
const hw::CodeRegion& TrapEntryRegion() {
  static const hw::CodeRegion r = hw::DefineCode("monos2.trap.entry", mk::Costs::kTrapEntry);
  return r;
}
const hw::CodeRegion& DispatchRegion() {
  static const hw::CodeRegion r = hw::DefineCode("monos2.sys.dispatch", 120);
  return r;
}
const hw::CodeRegion& FsLayerRegion() {
  static const hw::CodeRegion r = hw::DefineCode("monos2.fs.layer", 160);
  return r;
}
const hw::CodeRegion& DriverRegion() {
  static const hw::CodeRegion r = hw::DefineCode("monos2.drv.disk", 260);
  return r;
}
const hw::CodeRegion& WinRegion() {
  static const hw::CodeRegion r = hw::DefineCode("monos2.win.mgr", 170);
  return r;
}
const hw::CodeRegion& GreThunkRegion() {
  // 16-bit PM/GRE: selector loads, thunk to 16-bit code, GRE dispatch — the
  // per-draw-call overhead WPOS's 32-bit conversion removed.
  static const hw::CodeRegion r = hw::DefineCode("monos2.gre.thunk16", 310);
  return r;
}
const hw::CodeRegion& DrawLoopRegion() {
  static const hw::CodeRegion r = hw::DefineCode("monos2.gre.draw_loop", 40);
  return r;
}
}  // namespace

KernelDiskStore::KernelDiskStore(mk::Kernel& kernel, hw::Disk* disk)
    : kernel_(kernel), disk_(disk) {
  auto dma =
      kernel_.machine().mem().AllocContiguous(kMaxSectors * hw::Disk::kSectorSize / hw::kPageSize);
  WPOS_CHECK(dma.ok());
  dma_buffer_ = *dma;
  auto sem = kernel_.SemCreate(0);
  WPOS_CHECK(sem.ok());
  io_sem_ = *sem;
  kernel_.RegisterKernelInterrupt(static_cast<uint32_t>(disk_->irq_line()), [this] {
    (void)kernel_.SemSignal(io_sem_);
  });
}

bool KernelDiskStore::ValidExtent(uint64_t lba, uint32_t count) const {
  // As DiskDriver::DoIo: no `lba + count`, which wraps for a huge lba.
  return lba <= disk_->num_sectors() && count <= disk_->num_sectors() - lba;
}

base::Status KernelDiskStore::Sync(mk::Env& env) {
  if (!posted_) {
    return base::Status::kOk;
  }
  posted_ = false;
  // One signal per command: the posted write's interrupt may have
  // signalled already, and its status is read once the signal is taken.
  const base::Status st = kernel_.SemWait(io_sem_);
  if (st != base::Status::kOk) {
    return st;
  }
  const uint32_t status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  kernel_.IoWrite(disk_, hw::Disk::kRegStatus, 0);
  // Unreachable, as in DiskDriver::FinishPosted: the posted extent was valid.
  return (status & hw::Disk::kStatusError) != 0 ? base::Status::kIoError : base::Status::kOk;
}

base::Status KernelDiskStore::StartIo(mk::Env& env, uint32_t cmd, uint64_t lba, uint32_t count,
                                      const void* data) {
  const base::Status st = Sync(env);
  if (st != base::Status::kOk) {
    return st;
  }
  kernel_.cpu().Execute(DriverRegion());
  if (cmd == hw::Disk::kCmdWrite) {
    const uint64_t bytes = static_cast<uint64_t>(count) * hw::Disk::kSectorSize;
    kernel_.machine().mem().Write(dma_buffer_, data, bytes);
    kernel_.ChargeCopy(kernel_.heap().base(), dma_buffer_, bytes);
  }
  kernel_.IoWrite(disk_, hw::Disk::kRegLba, static_cast<uint32_t>(lba));
  kernel_.IoWrite(disk_, hw::Disk::kRegCount, count);
  kernel_.IoWrite(disk_, hw::Disk::kRegDmaLo, static_cast<uint32_t>(dma_buffer_));
  kernel_.IoWrite(disk_, hw::Disk::kRegCommand, cmd);
  return base::Status::kOk;
}

base::Status KernelDiskStore::DoIo(mk::Env& env, uint32_t cmd, uint64_t lba, uint32_t count,
                                   void* data) {
  if (!ValidExtent(lba, count)) {
    return base::Status::kInvalidArgument;
  }
  const base::Status started = StartIo(env, cmd, lba, count, data);
  if (started != base::Status::kOk) {
    return started;
  }
  uint32_t status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  while ((status & hw::Disk::kStatusDone) == 0) {
    const base::Status st = kernel_.SemWait(io_sem_);
    if (st != base::Status::kOk) {
      return st;
    }
    status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  }
  kernel_.IoWrite(disk_, hw::Disk::kRegStatus, 0);
  if ((status & hw::Disk::kStatusError) != 0) {
    return base::Status::kIoError;
  }
  if (cmd == hw::Disk::kCmdRead) {
    const uint64_t bytes = static_cast<uint64_t>(count) * hw::Disk::kSectorSize;
    kernel_.machine().mem().Read(dma_buffer_, data, bytes);
    kernel_.ChargeCopy(dma_buffer_, kernel_.heap().base(), bytes);
  }
  return base::Status::kOk;
}

base::Status KernelDiskStore::Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) {
  uint64_t done = 0;
  while (done < count) {
    const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(count - done, kMaxSectors));
    const base::Status st = DoIo(env, hw::Disk::kCmdRead, lba + done, chunk,
                                 static_cast<uint8_t*>(out) + done * hw::Disk::kSectorSize);
    if (st != base::Status::kOk) {
      return st;
    }
    done += chunk;
  }
  return base::Status::kOk;
}

base::Status KernelDiskStore::Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) {
  uint64_t done = 0;
  while (done < count) {
    const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(count - done, kMaxSectors));
    const base::Status st =
        DoIo(env, hw::Disk::kCmdWrite, lba + done, chunk,
             const_cast<uint8_t*>(static_cast<const uint8_t*>(src)) +
                 done * hw::Disk::kSectorSize);
    if (st != base::Status::kOk) {
      return st;
    }
    done += chunk;
  }
  return base::Status::kOk;
}

base::Status KernelDiskStore::WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount,
                                            const void* src, uint64_t rlba, void* out) {
  // A run that takes more than one command, or holds the read sector, goes
  // the default way: written, then read.
  if (wcount == 0 || wcount > kMaxSectors || (rlba >= wlba && rlba - wlba < wcount)) {
    return BlockStore::WriteThenRead(env, wlba, wcount, src, rlba, out);
  }
  // Both extents are checked before either command.
  if (!ValidExtent(wlba, wcount) || !ValidExtent(rlba, 1)) {
    return base::Status::kInvalidArgument;
  }
  const base::Status st = DoIo(env, hw::Disk::kCmdRead, rlba, 1, out);
  if (st != base::Status::kOk) {
    return st;
  }
  const base::Status started = StartIo(env, hw::Disk::kCmdWrite, wlba, wcount, src);
  posted_ = started == base::Status::kOk;
  return started;
}

MonolithicOs::MonolithicOs(mk::Kernel& kernel, svc::Pfs* pfs, hw::Framebuffer* fb)
    : kernel_(kernel), pfs_(pfs), fb_(fb) {
  if (fb_ != nullptr) {
    vram_object_ = std::make_shared<mk::VmObject>(hw::PageRound(fb_->vram_size()));
    vram_object_->SetDeviceWindow(fb_->vram_base());
  }
}

void MonolithicOs::SyscallEnter() {
  ++syscalls_;
  kernel_.EnterKernel(TrapEntryRegion());
  kernel_.cpu().Execute(DispatchRegion());
}

void MonolithicOs::SyscallExit() { kernel_.LeaveKernel(); }

void MonolithicOs::ChargeGreThunk() {
  kernel_.cpu().Execute(GreThunkRegion());
  kernel_.cpu().Stall(40);  // segment register reloads around the thunk
}

base::Result<svc::NodeId> MonolithicOs::Walk(mk::Env& env, const std::string& path,
                                             svc::NodeId* parent, std::string* leaf) {
  kernel_.cpu().Execute(FsLayerRegion());
  svc::NodeId dir = pfs_->root();
  std::vector<std::string> parts;
  size_t start = 1;
  while (start <= path.size()) {
    const size_t slash = path.find('/', start);
    const std::string part =
        slash == std::string::npos ? path.substr(start) : path.substr(start, slash - start);
    if (!part.empty()) {
      parts.push_back(part);
    }
    if (slash == std::string::npos) {
      break;
    }
    start = slash + 1;
  }
  if (parent != nullptr) {
    *parent = dir;
  }
  if (parts.empty()) {
    if (leaf != nullptr) {
      leaf->clear();
    }
    return dir;
  }
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    auto next = pfs_->Lookup(env, dir, parts[i]);
    if (!next.ok()) {
      return next.status();
    }
    dir = *next;
  }
  if (parent != nullptr) {
    *parent = dir;
  }
  if (leaf != nullptr) {
    *leaf = parts.back();
  }
  return pfs_->Lookup(env, dir, parts.back());
}

base::Result<uint64_t> MonolithicOs::Open(mk::Env& env, const std::string& path,
                                          uint32_t flags) {
  SyscallEnter();
  svc::NodeId parent = 0;
  std::string leaf;
  auto node = Walk(env, path, &parent, &leaf);
  if (!node.ok() && node.status() == base::Status::kNotFound && (flags & svc::kFsCreate) != 0 &&
      !leaf.empty()) {
    node = pfs_->Create(env, parent, leaf, /*directory=*/false);
  }
  if (!node.ok()) {
    SyscallExit();
    return node.status();
  }
  const uint64_t handle = next_handle_++;
  open_files_.emplace(handle, Node{*node});
  SyscallExit();
  return handle;
}

base::Status MonolithicOs::Close(mk::Env& env, uint64_t handle) {
  SyscallEnter();
  const bool ok = open_files_.erase(handle) != 0;
  SyscallExit();
  return ok ? base::Status::kOk : base::Status::kNotFound;
}

base::Result<uint32_t> MonolithicOs::Read(mk::Env& env, uint64_t handle, uint64_t offset,
                                          void* out, uint32_t len) {
  SyscallEnter();
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    SyscallExit();
    return base::Status::kInvalidArgument;
  }
  kernel_.cpu().Execute(FsLayerRegion());
  auto got = pfs_->Read(env, it->second.node, offset, out, len);
  SyscallExit();
  return got;
}

base::Result<uint32_t> MonolithicOs::Write(mk::Env& env, uint64_t handle, uint64_t offset,
                                           const void* data, uint32_t len) {
  SyscallEnter();
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    SyscallExit();
    return base::Status::kInvalidArgument;
  }
  kernel_.cpu().Execute(FsLayerRegion());
  auto wrote = pfs_->Write(env, it->second.node, offset, data, len);
  SyscallExit();
  return wrote;
}

base::Status MonolithicOs::Mkdir(mk::Env& env, const std::string& path) {
  SyscallEnter();
  svc::NodeId parent = 0;
  std::string leaf;
  (void)Walk(env, path, &parent, &leaf);
  if (leaf.empty()) {
    SyscallExit();
    return base::Status::kInvalidArgument;
  }
  auto node = pfs_->Create(env, parent, leaf, /*directory=*/true);
  SyscallExit();
  return node.status();
}

base::Status MonolithicOs::Unlink(mk::Env& env, const std::string& path) {
  SyscallEnter();
  svc::NodeId parent = 0;
  std::string leaf;
  auto node = Walk(env, path, &parent, &leaf);
  if (!node.ok()) {
    SyscallExit();
    return node.status();
  }
  const base::Status st = pfs_->Remove(env, parent, leaf);
  SyscallExit();
  return st;
}

base::Result<std::vector<svc::DirEntry>> MonolithicOs::ReadDir(mk::Env& env,
                                                               const std::string& path) {
  SyscallEnter();
  auto node = Walk(env, path, nullptr, nullptr);
  if (!node.ok()) {
    SyscallExit();
    return node.status();
  }
  auto entries = pfs_->ReadDir(env, *node);
  SyscallExit();
  return entries;
}

base::Result<hw::VirtAddr> MonolithicOs::MapVram(mk::Task& task) {
  if (vram_object_ == nullptr) {
    return base::Status::kNotSupported;
  }
  return kernel_.VmMapObject(task, vram_object_, 0, hw::PageRound(fb_->vram_size()),
                             mk::Prot::kReadWrite, /*anywhere=*/true);
}

base::Result<uint32_t> MonolithicOs::WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w,
                                               uint32_t h) {
  SyscallEnter();
  kernel_.cpu().Execute(WinRegion());
  // As DiskDriver::DoIo: no `x + w`, which wraps for a huge width.
  if (fb_ != nullptr && (w > fb_->width() || x > fb_->width() - w || h > fb_->height() ||
                         y > fb_->height() - h)) {
    SyscallExit();
    return base::Status::kInvalidArgument;
  }
  auto sem = kernel_.SemCreate(0);
  if (!sem.ok()) {
    SyscallExit();
    return sem.status();
  }
  const uint32_t hwnd = next_hwnd_++;
  windows_.emplace(hwnd, Window{x, y, w, h, next_z_++, {}, *sem});
  SyscallExit();
  return hwnd;
}

base::Status MonolithicOs::WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg, uint32_t p1,
                                   uint32_t p2) {
  SyscallEnter();
  kernel_.cpu().Execute(WinRegion());
  auto it = windows_.find(hwnd);
  if (it == windows_.end()) {
    SyscallExit();
    return base::Status::kNotFound;
  }
  it->second.queue.push_back({msg, p1, p2});
  (void)kernel_.SemSignal(it->second.sem);
  SyscallExit();
  return base::Status::kOk;
}

base::Result<MonolithicOs::WinMsg> MonolithicOs::WinGet(mk::Env& env, uint32_t hwnd) {
  SyscallEnter();
  kernel_.cpu().Execute(WinRegion());
  auto it = windows_.find(hwnd);
  if (it == windows_.end()) {
    SyscallExit();
    return base::Status::kNotFound;
  }
  const base::Status st = kernel_.SemWait(it->second.sem);
  if (st != base::Status::kOk) {
    SyscallExit();
    return st;
  }
  WPOS_CHECK(!it->second.queue.empty());
  WinMsg msg = it->second.queue.front();
  it->second.queue.pop_front();
  SyscallExit();
  return msg;
}

base::Status MonolithicOs::WinFillRect(mk::Env& env, mk::Task& task, hw::VirtAddr vram,
                                       uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                                       uint32_t h, uint8_t color) {
  ChargeGreThunk();
  auto it = windows_.find(hwnd);
  if (it == windows_.end()) {
    return base::Status::kNotFound;
  }
  const Window& win = it->second;
  if (w > win.w || x > win.w - w || h > win.h || y > win.h - h) {
    return base::Status::kInvalidArgument;
  }
  for (uint32_t row = 0; row < h; ++row) {
    kernel_.cpu().ExecuteInstructions(DrawLoopRegion(), 8 + w / 8);
    const uint64_t offset = static_cast<uint64_t>(win.y + y + row) * fb_->width() + win.x + x;
    const base::Status st = kernel_.UserFill(task, vram + offset, color, w);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return base::Status::kOk;
}

base::Status MonolithicOs::WinBitBlt(mk::Env& env, mk::Task& task, hw::VirtAddr vram,
                                     uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                                     uint32_t h) {
  ChargeGreThunk();
  auto it = windows_.find(hwnd);
  if (it == windows_.end()) {
    return base::Status::kNotFound;
  }
  const Window& win = it->second;
  if (w > win.w || x > win.w - w || h > win.h || y > win.h - h) {
    return base::Status::kInvalidArgument;
  }
  for (uint32_t row = 0; row < h; ++row) {
    kernel_.cpu().ExecuteInstructions(DrawLoopRegion(), 8 + w / 4);
    const uint64_t offset = static_cast<uint64_t>(win.y + y + row) * fb_->width() + win.x + x;
    base::Status st = kernel_.UserTouch(task, vram + offset, w, /*write=*/false);
    if (st != base::Status::kOk) {
      return st;
    }
    st = kernel_.UserTouch(task, vram + offset, w, /*write=*/true);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return base::Status::kOk;
}

base::Status MonolithicOs::WinSwitch(mk::Env& env, mk::Task& task, hw::VirtAddr vram,
                                     uint32_t hwnd) {
  SyscallEnter();
  kernel_.cpu().Execute(WinRegion());
  auto it = windows_.find(hwnd);
  if (it == windows_.end()) {
    SyscallExit();
    return base::Status::kNotFound;
  }
  it->second.z = next_z_++;
  // Activation broadcast (WM_ACTIVATE): in the monolithic system each post
  // is a kernel-queue operation.
  for (auto& [other_hwnd, other] : windows_) {
    if (other_hwnd != hwnd) {
      other.queue.push_back({0x0d, hwnd, 0});
      (void)kernel_.SemSignal(other.sem);
    }
  }
  SyscallExit();
  return WinBitBlt(env, task, vram, hwnd, 0, 0, it->second.w, it->second.h);
}

}  // namespace baseline
