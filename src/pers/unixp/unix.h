// UNIX personality (the AIX-compatible multi-server implementation the
// project planned): POSIX-flavoured processes built entirely from
// personality-neutral pieces — each process is a microkernel task, and its
// file-descriptor table fronts the shared file server.
#ifndef SRC_PERS_UNIXP_UNIX_H_
#define SRC_PERS_UNIXP_UNIX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/svc/fs/file_server.h"

namespace pers {

enum UnixOpenFlags : uint32_t {
  kORdOnly = 0,
  kOWrOnly = 1u << 0,
  kORdWr = 1u << 1,
  kOCreat = 1u << 2,
  kOTrunc = 1u << 3,
  kOAppend = 1u << 4,
  kOExcl = 1u << 5,
};

// The errno subset this personality can produce (POSIX values).
enum UnixErrno : int {
  kEOk = 0,
  kENOENT = 2,
  kEIO = 5,
  kEBADF = 9,
  kEAGAIN = 11,
  kEACCES = 13,
  kEBUSY = 16,
  kEEXIST = 17,
  kEINVAL = 22,
  kENOSPC = 28,
  kETIMEDOUT = 110,
};

// Maps a service status to errno. The graceful-degradation statuses —
// kBusy (admission-control shed), kUnavailable (breaker fast-fail or a
// degraded server) and kTimedOut (bounded call deadline expired) — all
// surface as EAGAIN: the POSIX contract for "back off and retry", instead
// of a hang inside the C library.
int UnixErrnoOf(base::Status st);

class UnixPersonality;

class UnixProcess {
 public:
  mk::Task* task() { return task_; }

  // --- POSIX-ish API -----------------------------------------------------------
  base::Result<int> Open(mk::Env& env, const std::string& path, uint32_t flags);
  base::Result<uint32_t> Read(mk::Env& env, int fd, void* buf, uint32_t len);
  base::Result<uint32_t> Write(mk::Env& env, int fd, const void* buf, uint32_t len);
  base::Result<uint64_t> Lseek(mk::Env& env, int fd, int64_t offset, int whence);
  // mmap family. Mmap maps the open file from offset 0 at a kernel-chosen
  // address (the server must have FileServer::EnableMapping). `shared` maps
  // the server-exported memory object directly (MAP_SHARED: stores are seen
  // by every mapper and reach the file via Msync); otherwise a private COW
  // shadow is mapped (MAP_PRIVATE: stores stay process-local, copied on
  // write). Mapped stores become visible to
  // read() only after Msync, which writes dirty pages through the file
  // session clipped to the current file size — mmap never extends a file.
  base::Result<hw::VirtAddr> Mmap(mk::Env& env, int fd, uint64_t len, bool shared);
  base::Status Munmap(mk::Env& env, hw::VirtAddr addr);
  base::Status Msync(mk::Env& env, hw::VirtAddr addr, uint64_t len);
  base::Status Close(mk::Env& env, int fd);

 private:
  friend class UnixPersonality;
  UnixProcess(UnixPersonality* pers, mk::Task* task);

  struct FileDesc {
    uint64_t handle = 0;  // file-server handle
    uint64_t offset = 0;  // implicit POSIX file offset
    uint32_t flags = 0;
  };

  // One live mmap region. `object` is the managed (server-exported) memory
  // object even for private mappings, whose vm entry holds a shadow over it.
  struct Mapping {
    hw::VirtAddr addr = 0;
    uint64_t len = 0;      // page-rounded mapping length
    uint64_t handle = 0;   // file-server handle the mapping was made from
    uint64_t object_id = 0;
    std::shared_ptr<mk::VmObject> object;
    bool shared = false;
  };

  UnixPersonality* pers_;
  mk::Task* task_;
  std::unique_ptr<svc::FsClient> fs_;
  std::map<int, FileDesc> fds_;
  std::vector<Mapping> mappings_;
  int next_fd_ = 3;  // 0-2 reserved, as tradition demands
};

class UnixPersonality {
 public:
  UnixPersonality(mk::Kernel& kernel, svc::FileServer& fs) : kernel_(kernel), fs_(fs) {}

  // Bounds every subsequent file-server RPC, for live processes and ones
  // spawned later (kForever = unbounded, the default; in-flight calls keep
  // their old deadline). With a bound, a wedged file server surfaces to the
  // process as EAGAIN — via UnixErrnoOf(kTimedOut) — while the watchdog
  // restarts it, instead of hanging the process inside libc.
  void set_io_timeout_ns(uint64_t ns) {
    io_timeout_ns_ = ns;
    for (auto& proc : processes_) {
      proc->fs_->set_call_timeout_ns(ns);
    }
  }

  // Turns on client-side FS caching (svc::FsCache) for live processes and
  // ones spawned later. Default-off: without it every file operation is a
  // straight RPC to the file server.
  void EnableFsCache() {
    fs_cache_on_ = true;
    for (auto& proc : processes_) {
      proc->fs_->EnableCache();
    }
  }

  // Creates a process; its main thread runs `main`.
  UnixProcess* Spawn(const std::string& name, mk::ThreadBody main);

 private:
  friend class UnixProcess;

  mk::Kernel& kernel_;
  svc::FileServer& fs_;
  std::vector<std::unique_ptr<UnixProcess>> processes_;
  // Live mmap regions across all processes. Non-zero turns on write-through
  // coherence: a cached fd write is flushed to the server so its mapped-page
  // invalidation runs while mappings exist. Zero (no mmap in use) keeps the
  // existing write-behind behaviour bit-for-bit.
  uint64_t live_mappings_ = 0;
  uint64_t io_timeout_ns_ = mk::kForever;
  bool fs_cache_on_ = false;
};

}  // namespace pers

#endif  // SRC_PERS_UNIXP_UNIX_H_
