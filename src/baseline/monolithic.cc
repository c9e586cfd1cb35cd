#include "src/baseline/monolithic.h"

#include <algorithm>

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
    : kernel_(kernel),
      disk_(disk),
      engine_(kernel, disk,
              {.take_interrupt = [this] { return kernel_.SemWait(io_sem_); },
               .io_path = DriverRegion,
               .copy_peer = [this] { return kernel_.heap().base(); }}) {
  auto sem = kernel_.SemCreate(0);
  WPOS_CHECK(sem.ok());
  io_sem_ = *sem;
  kernel_.RegisterKernelInterrupt(static_cast<uint32_t>(disk_->irq_line()), [this] {
    (void)kernel_.SemSignal(io_sem_);
  });
}

base::Status KernelDiskStore::Transfer(uint64_t lba, uint32_t count, const void* src,
                                       void* out) {
  for (uint64_t done = 0; done < count;) {
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(count - done, drv::DiskEngine::kMaxSectors));
    const uint64_t at = done * hw::Disk::kSectorSize;
    const base::Status st =
        src != nullptr ? engine_.Write(lba + done, chunk, static_cast<const uint8_t*>(src) + at)
                       : engine_.Read(lba + done, chunk, static_cast<uint8_t*>(out) + at);
    if (st != base::Status::kOk) {
      return st;
    }
    done += chunk;
  }
  return base::Status::kOk;
}

base::Status KernelDiskStore::Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) {
  return Transfer(lba, count, nullptr, out);
}

base::Status KernelDiskStore::Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) {
  return Transfer(lba, count, src, nullptr);
}

base::Status KernelDiskStore::WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount,
                                            const void* src, uint64_t rlba, void* out) {
  // A run longer than one command goes the default way.
  if (wcount > drv::DiskEngine::kMaxSectors) {
    return BlockStore::WriteThenRead(env, wlba, wcount, src, rlba, out);
  }
  return engine_.WriteThenRead(wlba, wcount, src, rlba, out);
}

MonolithicOs::MonolithicOs(mk::Kernel& kernel, svc::Pfs* pfs, hw::Framebuffer* fb)
    : kernel_(kernel), pfs_(pfs), fb_(kernel, fb) {}

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
  if (path.empty() || path.front() != '/') {
    return base::Status::kNotFound;  // empty or relative, as the file server answers
  }
  svc::NodeId dir = pfs_->root();
  const std::vector<std::string> parts = svc::SplitPath(path);
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
  if (parts.empty()) {
    return dir;  // the root, with no leaf
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
  auto walked = Walk(env, path, &parent, &leaf);
  if (leaf.empty()) {
    SyscallExit();
    return walked.ok() ? base::Status::kInvalidArgument : walked.status();
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

base::Result<hw::VirtAddr> MonolithicOs::MapVram(mk::Task& task) { return fb_.MapInto(task); }

base::Result<uint32_t> MonolithicOs::WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w,
                                               uint32_t h) {
  SyscallEnter();
  kernel_.cpu().Execute(WinRegion());
  if (!drv::RectInside(x, y, w, h, fb_.width(), fb_.height())) {
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
  if (!drv::RectInside(x, y, w, h, win.w, win.h)) {
    return base::Status::kInvalidArgument;
  }
  return drv::FillRows(kernel_, task, vram, fb_.width(), win.x + x, win.y + y, w, h, color,
                       DrawLoopRegion);
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
  if (!drv::RectInside(x, y, w, h, win.w, win.h)) {
    return base::Status::kInvalidArgument;
  }
  return drv::BlitRows(kernel_, task, vram, fb_.width(), win.x + x, win.y + y, w, h,
                       DrawLoopRegion);
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
  Window& win = it->second;
  // As PmSession::SwitchTo: only a window that one above it overlaps
  // repaints.
  const bool covered = std::any_of(windows_.begin(), windows_.end(), [&](const auto& entry) {
    const Window& other = entry.second;
    return other.z > win.z &&
           drv::RectsOverlap(win.x, win.y, win.w, win.h, other.x, other.y, other.w, other.h);
  });
  win.z = next_z_++;
  // Activation broadcast (WM_ACTIVATE): in the monolithic system each post
  // is a kernel-queue operation.
  for (auto& [other_hwnd, other] : windows_) {
    if (other_hwnd != hwnd) {
      other.queue.push_back({0x0d, hwnd, 0});
      (void)kernel_.SemSignal(other.sem);
    }
  }
  SyscallExit();
  return covered ? WinBitBlt(env, task, vram, hwnd, 0, 0, win.w, win.h) : base::Status::kOk;
}

}  // namespace baseline
