// The OS/2 personality.
//
// Per the paper: each OS/2 process gets a microkernel task, each OS/2 thread
// a microkernel thread; programs link shared libraries containing RPC stubs
// for the microkernel, Microkernel Services, shared services and the OS/2
// server, with as much function as possible implemented in the libraries
// themselves to reduce server interaction. The OS/2 server holds the truly
// shared state, the system semaphores, each held by at most one process;
// file function forwards to the personality-neutral file server with OS/2
// semantics flags; memory function is the commitment-oriented layer in
// os2_memory.h.
#ifndef SRC_PERS_OS2_OS2_H_
#define SRC_PERS_OS2_OS2_H_

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"
#include "src/pers/os2/os2_memory.h"
#include "src/svc/fs/file_server.h"

namespace pers {

enum class Os2Op : uint32_t {
  kCreateSem = 3,
  kRequestSem = 4,
  kReleaseSem = 5,
};

struct Os2Request {
  Os2Op op = Os2Op::kCreateSem;
  uint32_t value = 0;
  char name[64] = {};
};

struct Os2Reply {
  int32_t status = 0;
  uint32_t value = 0;
};

class Os2Server {
 public:
  Os2Server(mk::Kernel& kernel, mk::Task* task);

  mk::PortName receive_port() const { return receive_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once, and the
  // death-notice port with it.
  void Stop();

 private:
  // A system semaphore is free or held by one task. Only the holder may
  // release it (kPermissionDenied, OS/2's ERROR_NOT_OWNER); a release, or
  // the holder's death, passes it to the first waiter still there.
  struct SystemSem {
    struct Waiter {
      uint64_t token = 0;  // the parked kRequestSem call
      mk::TaskId task = 0;
    };
    mk::TaskId holder = 0;  // 0: free
    std::deque<Waiter> waiters;
  };

  void Serve(mk::Env& env);
  // Made on the first kCreateSem: a port that task-death notices reach,
  // and a thread that passes on each semaphore whose holder died.
  base::Status WatchDeaths();
  void PassOn(SystemSem& sem);

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  mk::PortName death_port_ = mk::kNullPort;
  std::map<std::string, uint32_t> sem_ids_;
  std::map<uint32_t, SystemSem> system_sems_;
  uint32_t next_sem_ = 1;
};

// One OS/2 process: a microkernel task plus the client-side libraries.
class Os2Process {
 public:
  Os2Process(mk::Kernel& kernel, Os2Server& server, svc::FileServer& fs,
             const std::string& name);

  mk::Task* task() { return task_; }
  Os2Memory& memory() { return memory_; }

  // --- Dos* API (client library; charges OS/2 stub code) ----------------------
  base::Result<uint64_t> DosOpen(mk::Env& env, const std::string& path, uint32_t fs_flags,
                                 svc::FsShare share = svc::FsShare::kDenyNone);
  base::Result<uint32_t> DosRead(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                                 uint32_t len);
  base::Result<uint32_t> DosWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                  const void* data, uint32_t len);
  base::Status DosClose(mk::Env& env, uint64_t handle);
  base::Status DosDelete(mk::Env& env, const std::string& path);
  base::Status DosMkdir(mk::Env& env, const std::string& path);
  base::Result<std::vector<svc::DirEntry>> DosFindAll(mk::Env& env, const std::string& dir);

  base::Result<hw::VirtAddr> DosAllocMem(mk::Env& env, uint64_t bytes, uint32_t flags) {
    return memory_.AllocMem(env, bytes, flags);
  }
  base::Status DosFreeMem(mk::Env& env, hw::VirtAddr addr) { return memory_.FreeMem(env, addr); }

  // System semaphores via the OS/2 server.
  base::Result<uint32_t> DosCreateSem(mk::Env& env, const std::string& name);
  base::Status DosRequestSem(mk::Env& env, uint32_t sem);
  base::Status DosReleaseSem(mk::Env& env, uint32_t sem);

  uint64_t api_calls() const { return api_calls_; }

 private:
  void ChargeStub();

  mk::Kernel& kernel_;
  mk::Task* task_;
  Os2Memory memory_;
  svc::FsClient fs_;
  mk::ClientStub os2_stub_;
  uint64_t api_calls_ = 0;
};

}  // namespace pers

#endif  // SRC_PERS_OS2_OS2_H_
