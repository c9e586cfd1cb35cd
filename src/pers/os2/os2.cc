#include "src/pers/os2/os2.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"
#include "src/mk/trace/tracer.h"

namespace pers {

namespace {
const hw::CodeRegion& DosStubRegion() {
  // The OS/2 client library entry sequence (doscalls.dll analogue).
  static const hw::CodeRegion r = hw::DefineCode("os2.lib.dos_stub", 90);
  return r;
}
}  // namespace

Os2Server::Os2Server(mk::Kernel& kernel, mk::Task* task) : kernel_(kernel), task_(task) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  // OS/2 server requests carry no by-reference data.
  loop_ = std::make_unique<mk::ServerLoop>(receive_port_, "os2", /*max_ref=*/0);
  kernel_.CreateThread(task_, "os2-server", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 2);
}

mk::PortName Os2Server::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void Os2Server::Stop() {
  loop_->Stop();
  if (death_port_ != mk::kNullPort) {
    (void)kernel_.UnregisterDeathWatcher(*task_, death_port_);
    // Killing the port ends the watcher thread's receive with kPortDead.
    (void)kernel_.PortDestroy(*task_, death_port_);
  }
}

base::Status Os2Server::WatchDeaths() {
  if (death_port_ != mk::kNullPort) {
    return base::Status::kOk;
  }
  auto port = kernel_.PortAllocate(*task_);
  if (!port.ok()) {
    return port.status();
  }
  death_port_ = *port;
  const base::Result<mk::Thread*> watcher = kernel_.TryCreateThread(task_, "os2-deaths",
                                                                    [this](mk::Env& env) {
    mk::MachMessage msg;
    mk::TaskDeathNotice notice;
    while (env.MachMsgReceive(death_port_, &msg) == base::Status::kOk) {
      if (msg.msg_id != mk::kTaskDeathMsgId || msg.inline_data.size() < sizeof(notice)) {
        continue;  // a port's death: semaphores are held by tasks
      }
      std::memcpy(&notice, msg.inline_data.data(), sizeof(notice));
      for (auto& [id, sem] : system_sems_) {
        if (sem.holder == notice.task) {
          PassOn(sem);
        }
      }
    }
  }, mk::Thread::kDefaultPriority + 2);
  if (!watcher.ok()) {
    (void)kernel_.PortDestroy(*task_, death_port_);
    death_port_ = mk::kNullPort;
    return watcher.status();
  }
  (void)kernel_.RegisterDeathWatcher(*task_, death_port_);  // a fresh receive right
  return base::Status::kOk;
}

void Os2Server::PassOn(SystemSem& sem) {
  // A waiter whose task died or whose call timed out has no call left to
  // answer; its reply fails and the semaphore moves on.
  while (!sem.waiters.empty()) {
    const SystemSem::Waiter next = sem.waiters.front();
    sem.waiters.pop_front();
    sem.holder = next.task;
    const Os2Reply granted;
    // A reply can yield, and another thread may pass the semaphore on
    // meanwhile; then that thread's answer stands.
    if (kernel_.RpcReply(next.token, &granted, sizeof(granted)) == base::Status::kOk ||
        sem.holder != next.task) {
      return;
    }
  }
  sem.holder = 0;
}

void Os2Server::Serve(mk::Env& env) {
  static const hw::CodeRegion kLoop = hw::DefineCode("loop.os2", mk::Costs::kRpcServerLoop);
  loop_->Run<Os2Request>(env, [&](mk::Env& env, const mk::RpcRequest& rpc, const Os2Request& r,
                                  const uint8_t* /*ref_data*/, uint32_t /*ref_len*/) {
    kernel_.cpu().Execute(kLoop);
    Os2Reply reply;
    switch (r.op) {
      case Os2Op::kCreateSem: {
        // The only op that reads name, so its one validation point: name
        // must be a C string within its field.
        if (std::memchr(r.name, '\0', sizeof(r.name)) == nullptr) {
          reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
        } else if (sem_ids_.contains(r.name)) {
          reply.status = static_cast<int32_t>(base::Status::kAlreadyExists);
        } else if (const base::Status st = WatchDeaths(); st != base::Status::kOk) {
          reply.status = static_cast<int32_t>(st);
        } else {
          const uint32_t id = next_sem_++;
          sem_ids_.emplace(r.name, id);
          system_sems_.emplace(id, SystemSem{});
          reply.value = id;
        }
        break;
      }
      case Os2Op::kRequestSem: {
        auto it = system_sems_.find(r.value);
        if (it == system_sems_.end()) {
          reply.status = static_cast<int32_t>(base::Status::kNotFound);
        } else if (it->second.holder == 0) {
          it->second.holder = rpc.client_task;
        } else {
          // Held, by this task too: defer the reply; a release or the
          // holder's death completes it. The server thread stays free to
          // serve other processes meanwhile.
          it->second.waiters.push_back({rpc.token, rpc.client_task});
          return;
        }
        break;
      }
      case Os2Op::kReleaseSem: {
        auto it = system_sems_.find(r.value);
        if (it == system_sems_.end()) {
          reply.status = static_cast<int32_t>(base::Status::kNotFound);
        } else if (it->second.holder != rpc.client_task) {
          reply.status = static_cast<int32_t>(base::Status::kPermissionDenied);
        } else {
          PassOn(it->second);
        }
        break;
      }
      default:
        reply.status = static_cast<int32_t>(base::Status::kNotSupported);
    }
    loop_->Reply(rpc, &reply, sizeof(reply));
  });
}

Os2Process::Os2Process(mk::Kernel& kernel, Os2Server& server, svc::FileServer& fs,
                       const std::string& name)
    : kernel_(kernel),
      task_(kernel.CreateTask("os2." + name, /*app_footprint_instr=*/4096)),
      memory_(kernel, *task_),
      fs_(fs.GrantTo(*task_)),
      os2_stub_("os2.client", server.GrantTo(*task_)) {}

void Os2Process::ChargeStub() {
  ++api_calls_;
  kernel_.cpu().Execute(DosStubRegion());
}

base::Result<uint64_t> Os2Process::DosOpen(mk::Env& env, const std::string& path,
                                           uint32_t fs_flags, svc::FsShare share) {
  // API root span for the causal request tree (see the UNIX personality).
  mk::trace::ScopedSpan api(kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            fs_flags);
  kernel_.tracer().LabelSpan(api.id(), "os2.DosOpen");
  ChargeStub();
  // OS/2 file names are case-insensitive regardless of the store.
  return fs_.Open(env, path, fs_flags | svc::kFsCaseInsensitive, share);
}

base::Result<uint32_t> Os2Process::DosRead(mk::Env& env, uint64_t handle, uint64_t offset,
                                           void* out, uint32_t len) {
  mk::trace::ScopedSpan api(kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            handle);
  kernel_.tracer().LabelSpan(api.id(), "os2.DosRead");
  ChargeStub();
  // DosRead has no size limit; loop in server-sized chunks (each chunk large
  // enough to move out-of-line) and stop at EOF.
  uint32_t total = 0;
  while (total < len) {
    const uint32_t chunk = std::min(len - total, svc::kFsMaxIo);
    auto got = fs_.Read(env, handle, offset + total, static_cast<uint8_t*>(out) + total, chunk);
    if (!got.ok()) {
      return total > 0 ? base::Result<uint32_t>(total) : got;
    }
    total += *got;
    if (*got < chunk) {
      break;  // EOF
    }
  }
  return total;
}

base::Result<uint32_t> Os2Process::DosWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                            const void* data, uint32_t len) {
  mk::trace::ScopedSpan api(kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            handle);
  kernel_.tracer().LabelSpan(api.id(), "os2.DosWrite");
  ChargeStub();
  uint32_t total = 0;
  while (total < len) {
    const uint32_t chunk = std::min(len - total, svc::kFsMaxIo);
    auto wrote =
        fs_.Write(env, handle, offset + total, static_cast<const uint8_t*>(data) + total, chunk);
    if (!wrote.ok()) {
      return total > 0 ? base::Result<uint32_t>(total) : wrote;
    }
    total += *wrote;
    if (*wrote < chunk) {
      break;  // short write (e.g. lock conflict mid-stream)
    }
  }
  return total;
}

base::Status Os2Process::DosClose(mk::Env& env, uint64_t handle) {
  ChargeStub();
  return fs_.Close(env, handle);
}

base::Status Os2Process::DosDelete(mk::Env& env, const std::string& path) {
  ChargeStub();
  return fs_.Unlink(env, path);
}

base::Status Os2Process::DosMkdir(mk::Env& env, const std::string& path) {
  ChargeStub();
  return fs_.Mkdir(env, path);
}

base::Result<std::vector<svc::DirEntry>> Os2Process::DosFindAll(mk::Env& env,
                                                                const std::string& dir) {
  ChargeStub();
  return fs_.ReadDir(env, dir);
}

base::Result<uint32_t> Os2Process::DosCreateSem(mk::Env& env, const std::string& name) {
  ChargeStub();
  Os2Request r;
  r.op = Os2Op::kCreateSem;
  std::strncpy(r.name, name.c_str(), sizeof(r.name) - 1);
  Os2Reply reply;
  const base::Status st = os2_stub_.Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.value;
}

base::Status Os2Process::DosRequestSem(mk::Env& env, uint32_t sem) {
  ChargeStub();
  Os2Request r;
  r.op = Os2Op::kRequestSem;
  r.value = sem;
  Os2Reply reply;
  const base::Status st = os2_stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status Os2Process::DosReleaseSem(mk::Env& env, uint32_t sem) {
  ChargeStub();
  Os2Request r;
  r.op = Os2Op::kReleaseSem;
  r.value = sem;
  Os2Reply reply;
  const base::Status st = os2_stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

}  // namespace pers
