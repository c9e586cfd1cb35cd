// Monolithic OS/2 comparator — the Table 1 denominator.
//
// The same function as the multi-server system (the identical physical file
// systems, the same block cache, the same simulated disk), but structured as
// a traditional kernel: services are reached by a trap and an in-kernel
// function call, the disk driver is in-kernel and interrupt-driven, and the
// window system's message queues live in the kernel. The graphics path also
// models the piece WPOS replaced: the 16-bit PM/GRE dispatch-and-thunk layer
// in front of every drawing call, which the WPOS libraries had "converted to
// 32-bit C code" (so the microkernel system draws without it — that is why
// the paper's graphics workloads favour WPOS).
#ifndef SRC_BASELINE_MONOLITHIC_H_
#define SRC_BASELINE_MONOLITHIC_H_

#include <deque>
#include <map>
#include <string>

#include "src/drv/disk_driver.h"
#include "src/drv/fb_driver.h"
#include "src/hw/disk.h"
#include "src/hw/framebuffer.h"
#include "src/mk/kernel.h"
#include "src/mks/pager/default_pager.h"
#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/pfs.h"
#include "src/svc/fs/protocol.h"

namespace baseline {

// In-kernel interrupt-driven disk driver: the block store behind the
// monolithic file system. It runs the user-level driver's drv::DiskEngine,
// with the kernel's hooks: an in-kernel semaphore for the interrupt, the
// monos2.drv.disk region, and copies against the kernel heap.
class KernelDiskStore : public mks::BlockStore {
 public:
  KernelDiskStore(mk::Kernel& kernel, hw::Disk* disk);

  base::Status Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) override;
  base::Status Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) override;
  // As drv::DiskDriver's kWriteRead: a read outside the run goes first, and
  // the run's write is posted.
  base::Status WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount, const void* src,
                             uint64_t rlba, void* out) override;
  // Waits for a posted write, if any.
  base::Status Sync(mk::Env& env) override { return engine_.FinishPosted(); }
  uint64_t num_sectors() const override { return disk_->num_sectors(); }

 private:
  // Read (`out`) or Write (`src`): one command per drv::DiskEngine::kMaxSectors.
  base::Status Transfer(uint64_t lba, uint32_t count, const void* src, void* out);

  mk::Kernel& kernel_;
  hw::Disk* disk_;
  uint32_t io_sem_ = 0;
  drv::DiskEngine engine_;
};

class MonolithicOs {
 public:
  // The PFS (formatted by the caller) plugs in exactly as it does in the
  // file server — only the access structure differs. `fb` is the screen the
  // window system draws on.
  MonolithicOs(mk::Kernel& kernel, svc::Pfs* pfs, hw::Framebuffer* fb);

  // --- File API: trap + in-kernel call ----------------------------------------
  base::Result<uint64_t> Open(mk::Env& env, const std::string& path, uint32_t flags);
  base::Status Close(mk::Env& env, uint64_t handle);
  base::Result<uint32_t> Read(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                              uint32_t len);
  base::Result<uint32_t> Write(mk::Env& env, uint64_t handle, uint64_t offset, const void* data,
                               uint32_t len);
  base::Status Mkdir(mk::Env& env, const std::string& path);
  base::Status Unlink(mk::Env& env, const std::string& path);
  base::Result<std::vector<svc::DirEntry>> ReadDir(mk::Env& env, const std::string& path);

  // --- Window system: kernel queues + the 16-bit PM draw layer ----------------
  base::Result<uint32_t> WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w, uint32_t h);
  base::Status WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg, uint32_t p1, uint32_t p2);
  struct WinMsg {
    uint32_t msg = 0, p1 = 0, p2 = 0;
  };
  base::Result<WinMsg> WinGet(mk::Env& env, uint32_t hwnd);  // blocks
  base::Status WinFillRect(mk::Env& env, mk::Task& task, hw::VirtAddr vram, uint32_t hwnd,
                           uint32_t x, uint32_t y, uint32_t w, uint32_t h, uint8_t color);
  base::Status WinBitBlt(mk::Env& env, mk::Task& task, hw::VirtAddr vram, uint32_t hwnd,
                         uint32_t x, uint32_t y, uint32_t w, uint32_t h);
  base::Status WinSwitch(mk::Env& env, mk::Task& task, hw::VirtAddr vram, uint32_t hwnd);

  // Maps the framebuffer aperture into an application task (the app still
  // draws "directly", but through the GRE/thunk entry sequence).
  base::Result<hw::VirtAddr> MapVram(mk::Task& task);

  uint64_t syscalls() const { return syscalls_; }

 private:
  struct Node {
    svc::NodeId node = 0;
  };
  struct Window {
    uint32_t x = 0, y = 0, w = 0, h = 0, z = 0;
    std::deque<WinMsg> queue;
    uint32_t sem = 0;
  };

  // Trap + dispatch bracket around every call.
  void SyscallEnter();
  void SyscallExit();
  // As FileServer::Walk: `*parent` and `*leaf` are set once the walk
  // reaches the parent, and the root has no leaf.
  base::Result<svc::NodeId> Walk(mk::Env& env, const std::string& path, svc::NodeId* parent,
                                 std::string* leaf);
  // The 16-bit PM/GRE entry: selector thunk + dispatch, charged per draw call.
  void ChargeGreThunk();

  mk::Kernel& kernel_;
  svc::Pfs* pfs_;
  drv::FbDriver fb_;
  std::map<uint64_t, Node> open_files_;
  uint64_t next_handle_ = 1;
  std::map<uint32_t, Window> windows_;
  uint32_t next_hwnd_ = 1;
  uint32_t next_z_ = 1;
  uint64_t syscalls_ = 0;
};

}  // namespace baseline

#endif  // SRC_BASELINE_MONOLITHIC_H_
