#include "src/pers/unixp/unix.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"
#include "src/mk/trace/tracer.h"

namespace pers {

namespace {
const hw::CodeRegion& LibcRegion() {
  // The POSIX-ish libc stub layer over the personality-neutral services.
  static const hw::CodeRegion r = hw::DefineCode("unix.lib.libc_stub", 80);
  return r;
}
const hw::CodeRegion& ForkRegion() {
  static const hw::CodeRegion r = hw::DefineCode("unix.proc.fork", 420);
  return r;
}
}  // namespace

int UnixErrnoOf(base::Status st) {
  switch (st) {
    case base::Status::kOk:
      return kEOk;
    case base::Status::kNotFound:
      return kENOENT;
    case base::Status::kBusy:          // admission-control shed
    case base::Status::kUnavailable:   // breaker fast-fail / degraded server
    case base::Status::kTimedOut:      // bounded-call deadline expired
    case base::Status::kQueueFull:     // legacy IPC queue limit
    case base::Status::kWouldBlock:
      return kEAGAIN;
    case base::Status::kPermissionDenied:
      return kEACCES;
    case base::Status::kAlreadyExists:
      return kEEXIST;
    case base::Status::kNoSpace:
      return kENOSPC;
    case base::Status::kInvalidArgument:
    case base::Status::kNotSupported:
      return kEINVAL;
    default:
      return kEIO;
  }
}

UnixProcess::UnixProcess(UnixPersonality* pers, mk::Task* task, uint32_t pid)
    : pers_(pers), task_(task), pid_(pid) {
  fs_ = std::make_unique<svc::FsClient>(pers->fs_.GrantTo(*task), pers->io_timeout_ns_);
  if (pers->fs_cache_on_) {
    fs_->EnableCache();
  }
}

UnixProcess* UnixPersonality::Spawn(const std::string& name, mk::ThreadBody main) {
  mk::Task* task = kernel_.CreateTask("unix." + name, 4096);
  processes_.push_back(
      std::unique_ptr<UnixProcess>(new UnixProcess(this, task, next_pid_++)));
  UnixProcess* proc = processes_.back().get();
  proc->main_thread_ = kernel_.CreateThread(task, name, std::move(main));
  return proc;
}

UnixProcess* UnixPersonality::AdoptTask(mk::Task* task) {
  processes_.push_back(
      std::unique_ptr<UnixProcess>(new UnixProcess(this, task, next_pid_++)));
  return processes_.back().get();
}

base::Result<int> UnixProcess::Open(mk::Env& env, const std::string& path, uint32_t flags) {
  // API root span: everything the call does — the personality's own work and
  // each RPC hop below it — hangs off this span in the causal request tree.
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            flags);
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.open");
  pers_->kernel_.cpu().Execute(LibcRegion());
  uint32_t fs_flags = 0;
  if ((flags & kOCreat) != 0) {
    fs_flags |= svc::kFsCreate;
  }
  if ((flags & kOExcl) != 0) {
    fs_flags |= svc::kFsExclusive;
  }
  if ((flags & kOTrunc) != 0) {
    fs_flags |= svc::kFsTruncate;
  }
  if ((flags & kOAppend) != 0) {
    fs_flags |= svc::kFsAppend;
  }
  if ((flags & (kOWrOnly | kORdWr)) != 0) {
    fs_flags |= svc::kFsWrite;
  }
  auto handle = fs_->Open(env, path, fs_flags);
  if (!handle.ok()) {
    return handle.status();
  }
  const int fd = next_fd_++;
  fds_.emplace(fd, FileDesc{FileDesc::Kind::kFile, *handle, 0, flags, mk::kNullPort});
  return fd;
}

base::Result<uint32_t> UnixProcess::Read(mk::Env& env, int fd, void* buf, uint32_t len) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            static_cast<uint64_t>(fd));
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.read");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return base::Status::kInvalidArgument;
  }
  FileDesc& desc = it->second;
  if (desc.kind == FileDesc::Kind::kPipeRead) {
    // Bytes a previous short read left behind come first — before the next
    // message, and without touching the port.
    if (!desc.pipe_rest.empty()) {
      const uint32_t n = static_cast<uint32_t>(std::min<size_t>(len, desc.pipe_rest.size()));
      std::memcpy(buf, desc.pipe_rest.data(), n);
      desc.pipe_rest.erase(desc.pipe_rest.begin(), desc.pipe_rest.begin() + n);
      return n;
    }
    mk::MachMessage msg;
    const base::Status st = pers_->kernel_.MachMsgReceive(desc.pipe, &msg);
    if (st != base::Status::kOk) {
      return st == base::Status::kPortDead ? base::Result<uint32_t>(0u)
                                           : base::Result<uint32_t>(st);
    }
    const uint32_t n = static_cast<uint32_t>(std::min<size_t>(len, msg.inline_data.size()));
    std::memcpy(buf, msg.inline_data.data(), n);
    if (n < msg.inline_data.size()) {
      // Pipes are byte streams: a read shorter than the message must keep
      // the tail for the next read, not discard it with the message.
      desc.pipe_rest.assign(msg.inline_data.begin() + n, msg.inline_data.end());
    }
    return n;
  }
  auto got = fs_->Read(env, desc.handle, desc.offset, buf, len);
  if (!got.ok()) {
    return got;
  }
  desc.offset += *got;  // the implicit POSIX offset
  return got;
}

base::Result<uint32_t> UnixProcess::Write(mk::Env& env, int fd, const void* buf, uint32_t len) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            static_cast<uint64_t>(fd));
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.write");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return base::Status::kInvalidArgument;
  }
  FileDesc& desc = it->second;
  if (desc.kind == FileDesc::Kind::kPipeWrite) {
    mk::MachMessage msg;
    msg.dest = desc.pipe;
    msg.inline_data.assign(static_cast<const uint8_t*>(buf),
                           static_cast<const uint8_t*>(buf) + len);
    const base::Status st = pers_->kernel_.MachMsgSend(std::move(msg));
    if (st != base::Status::kOk) {
      return st;
    }
    return len;
  }
  if ((desc.flags & kOAppend) != 0) {
    // O_APPEND: the write lands at the *current* end of file. The per-fd
    // offset can be stale — another descriptor (or a forked twin) may have
    // grown the file since this fd last wrote.
    auto attr = fs_->Stat(env, desc.handle);
    if (!attr.ok()) {
      return attr.status();
    }
    desc.offset = attr->size;
  }
  auto wrote = fs_->Write(env, desc.handle, desc.offset, buf, len);
  if (!wrote.ok()) {
    return wrote;
  }
  if (pers_->live_mappings_ != 0) {
    // Mapped views refault from the server, so a cached write must reach it
    // (and trigger its mapped-page invalidation) now, not at flush time.
    const base::Status fl = fs_->Flush(env, desc.handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  desc.offset += *wrote;
  return wrote;
}

base::Result<uint32_t> UnixProcess::Readv(mk::Env& env, int fd, const UnixIoVec* iov,
                                          uint32_t iovcnt) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            static_cast<uint64_t>(fd));
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.readv");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return base::Status::kInvalidArgument;
  }
  FileDesc& desc = it->second;
  if (desc.kind != FileDesc::Kind::kFile) {
    return base::Status::kNotSupported;  // pipes have no scatter path
  }
  if (iovcnt == 0 || iovcnt > svc::kFsMaxExtents) {
    return base::Status::kInvalidArgument;
  }
  // iovecs map to consecutive file extents from the implicit offset.
  svc::FsReadExtent extents[svc::kFsMaxExtents];
  uint64_t pos = desc.offset;
  for (uint32_t i = 0; i < iovcnt; ++i) {
    extents[i] = svc::FsReadExtent{pos, iov[i].base, iov[i].len};
    pos += iov[i].len;
  }
  auto got = fs_->ReadV(env, desc.handle, extents, iovcnt);
  if (!got.ok()) {
    return got;
  }
  desc.offset += *got;
  return got;
}

base::Result<uint32_t> UnixProcess::Writev(mk::Env& env, int fd, const UnixIoVec* iov,
                                           uint32_t iovcnt) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            static_cast<uint64_t>(fd));
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.writev");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return base::Status::kInvalidArgument;
  }
  FileDesc& desc = it->second;
  if (desc.kind != FileDesc::Kind::kFile) {
    return base::Status::kNotSupported;
  }
  if (iovcnt == 0 || iovcnt > svc::kFsMaxExtents) {
    return base::Status::kInvalidArgument;
  }
  if ((desc.flags & kOAppend) != 0) {
    // Same O_APPEND repositioning as Write. The server appends a gather
    // write at EOF as it does a write; the fd offset follows it there.
    auto attr = fs_->Stat(env, desc.handle);
    if (!attr.ok()) {
      return attr.status();
    }
    desc.offset = attr->size;
  }
  svc::FsWriteExtent extents[svc::kFsMaxExtents];
  uint64_t pos = desc.offset;
  for (uint32_t i = 0; i < iovcnt; ++i) {
    extents[i] = svc::FsWriteExtent{pos, iov[i].base, iov[i].len};
    pos += iov[i].len;
  }
  auto wrote = fs_->WriteV(env, desc.handle, extents, iovcnt);
  if (!wrote.ok()) {
    return wrote;
  }
  desc.offset += *wrote;
  return wrote;
}

base::Result<uint64_t> UnixProcess::Lseek(mk::Env& env, int fd, int64_t offset, int whence) {
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != FileDesc::Kind::kFile) {
    return base::Status::kInvalidArgument;
  }
  FileDesc& desc = it->second;
  int64_t base_pos = 0;
  switch (whence) {
    case 0:  // SEEK_SET
      break;
    case 1:  // SEEK_CUR
      base_pos = static_cast<int64_t>(desc.offset);
      break;
    case 2: {  // SEEK_END — size via the handle-based stat (no path walk)
      auto attr = fs_->Stat(env, desc.handle);
      if (!attr.ok()) {
        return attr.status();
      }
      base_pos = static_cast<int64_t>(attr->size);
      break;
    }
    default:
      return base::Status::kInvalidArgument;
  }
  if (base_pos + offset < 0) {
    return base::Status::kInvalidArgument;
  }
  desc.offset = static_cast<uint64_t>(base_pos + offset);
  return desc.offset;
}

base::Result<hw::VirtAddr> UnixProcess::Mmap(mk::Env& env, int fd, uint64_t len, bool shared) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            static_cast<uint64_t>(fd));
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.mmap");
  pers_->kernel_.cpu().Execute(LibcRegion());
  if (len == 0) {
    return base::Status::kInvalidArgument;
  }
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != FileDesc::Kind::kFile) {
    return base::Status::kInvalidArgument;
  }
  auto mapping = fs_->MapObject(env, it->second.handle, len);
  if (!mapping.ok()) {
    return mapping.status();
  }
  auto object = pers_->kernel_.LookupPagedObject(mapping->object_id);
  if (object == nullptr) {
    return base::Status::kInternal;
  }
  const uint64_t map_len = std::min(hw::PageRound(len), object->size());
  base::Result<hw::VirtAddr> addr = base::Status::kInternal;
  if (shared) {
    addr = pers_->kernel_.VmMapObject(*task_, object, 0, map_len, mk::Prot::kReadWrite,
                                      /*anywhere=*/true, 0, mk::Inherit::kShare);
  } else {
    // MAP_PRIVATE: an anonymous shadow over the managed object. Stores COW
    // into the shadow and never reach the file object, so msync correctly
    // writes back only shared-mapping dirt.
    auto shadow = std::make_shared<mk::VmObject>(object->size());
    shadow->SetShadow(object);
    addr = pers_->kernel_.VmMapObject(*task_, std::move(shadow), 0, map_len,
                                      mk::Prot::kReadWrite, /*anywhere=*/true, 0,
                                      mk::Inherit::kCopy);
  }
  if (!addr.ok()) {
    (void)fs_->UnmapObject(env, mapping->object_id);
    return addr.status();
  }
  mappings_.push_back(
      Mapping{*addr, map_len, it->second.handle, mapping->object_id, std::move(object), shared});
  ++pers_->live_mappings_;
  return addr;
}

base::Status UnixProcess::Munmap(mk::Env& env, hw::VirtAddr addr) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            addr);
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.munmap");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = std::find_if(mappings_.begin(), mappings_.end(),
                         [&](const Mapping& m) { return m.addr == addr; });
  if (it == mappings_.end()) {
    return base::Status::kInvalidArgument;
  }
  const base::Status st = pers_->kernel_.VmDeallocate(*task_, it->addr, it->len);
  auto remaining = fs_->UnmapObject(env, it->object_id);
  if (remaining.ok() && *remaining == 0) {
    // Last mapping anywhere: terminate the object. Dirty pages that were
    // never msync'd are discarded, as POSIX promises for munmap.
    (void)pers_->kernel_.ReleasePagedObject(it->object_id);
  }
  mappings_.erase(it);
  if (pers_->live_mappings_ > 0) {
    --pers_->live_mappings_;
  }
  return st;
}

base::Status UnixProcess::Msync(mk::Env& env, hw::VirtAddr addr, uint64_t len) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            addr);
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.msync");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = std::find_if(mappings_.begin(), mappings_.end(), [&](const Mapping& m) {
    return addr >= m.addr && addr < m.addr + m.len;
  });
  if (it == mappings_.end()) {
    return base::Status::kInvalidArgument;
  }
  if (!it->shared) {
    return base::Status::kOk;  // private dirt never reaches the file
  }
  const uint64_t start = addr - it->addr;
  if (len == 0 || len > it->len - start) {
    len = it->len - start;
  }
  const uint64_t first = start >> hw::kPageShift;
  const uint64_t count = ((start + len - 1) >> hw::kPageShift) - first + 1;
  auto attr = fs_->Stat(env, it->handle);
  if (!attr.ok()) {
    return attr.status();
  }
  // Dirty pages go back through the file session — not the raw pager port —
  // so a crashed server's restart replays them via the same robust write
  // path every other file write takes.
  std::vector<uint8_t> page(hw::kPageSize);
  for (uint64_t index : it->object->DirtyPages(first, count)) {
    const uint64_t offset = index << hw::kPageShift;
    if (offset >= attr->size) {
      continue;  // a mapped store wholly past EOF is not durable
    }
    const base::Status cp =
        pers_->kernel_.CopyIn(*task_, it->addr + offset, page.data(), hw::kPageSize);
    if (cp != base::Status::kOk) {
      return cp;
    }
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(hw::kPageSize, attr->size - offset));
    auto wrote = fs_->Write(env, it->handle, offset, page.data(), n);
    if (!wrote.ok()) {
      return wrote.status();
    }
  }
  // Publish before re-protecting: once pages are clean the server is the
  // source of truth for them, so buffered write-behind must not lag behind
  // a future invalidate-and-refault.
  const base::Status fl = fs_->Flush(env, it->handle);
  if (fl != base::Status::kOk) {
    return fl;
  }
  pers_->kernel_.VmObjectMarkClean(it->object.get(), first, count);
  return base::Status::kOk;
}

base::Status UnixProcess::Close(mk::Env& env, int fd) {
  mk::trace::ScopedSpan api(pers_->kernel_.tracer(), mk::trace::SpanKind::kApi,
                            mk::trace::EventType::kApiCall, mk::trace::EventType::kApiReturn,
                            static_cast<uint64_t>(fd));
  pers_->kernel_.tracer().LabelSpan(api.id(), "unix.close");
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return base::Status::kInvalidArgument;
  }
  base::Status st = base::Status::kOk;
  if (it->second.kind == FileDesc::Kind::kFile) {
    st = fs_->Close(env, it->second.handle);
  } else if (it->second.kind == FileDesc::Kind::kPipeWrite) {
    // Closing the write end kills the port: readers see EOF (kPortDead).
    st = pers_->kernel_.PortDestroy(*task_, it->second.pipe);
    if (st == base::Status::kInvalidRight) {
      // A forked child's write end is a send right, not the receive right:
      // dropping it must not tear the pipe out from under the parent.
      st = task_->port_space().Release(it->second.pipe);
    }
  }
  fds_.erase(it);
  return st;
}

base::Result<std::pair<int, int>> UnixProcess::Pipe(mk::Env& env) {
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto port = pers_->kernel_.PortAllocate(*task_);
  if (!port.ok()) {
    return port.status();
  }
  const int rfd = next_fd_++;
  const int wfd = next_fd_++;
  fds_.emplace(rfd, FileDesc{FileDesc::Kind::kPipeRead, 0, 0, 0, *port});
  fds_.emplace(wfd, FileDesc{FileDesc::Kind::kPipeWrite, 0, 0, 0, *port});
  return std::make_pair(rfd, wfd);
}

base::Result<UnixProcess*> UnixProcess::Fork(mk::Env& env, mk::ThreadBody child_main) {
  mk::Kernel& kernel = pers_->kernel_;
  kernel.cpu().Execute(ForkRegion());
  mk::Task* child_task = kernel.TaskForkVm(*task_, task_->name() + ".child");
  UnixProcess* child = pers_->AdoptTask(child_task);
  // POSIX: descriptors are inherited. File offsets are duplicated (a
  // simplification of shared open-file descriptions, recorded in DESIGN.md).
  child->fds_ = fds_;
  child->next_fd_ = next_fd_;
  // Port rights do not travel with the address-space copy — the fd table is
  // personality state but the port space is kernel state. Grant each
  // inherited pipe end into the child's space and rewrite the child's names;
  // without this the child's first pipe read/write fails on a name the
  // kernel never issued to its task.
  for (auto& [fd, desc] : child->fds_) {
    if (desc.kind == FileDesc::Kind::kPipeRead) {
      auto right = kernel.MakeReceiveRight(*task_, desc.pipe, *child_task);
      if (!right.ok()) {
        return right.status();
      }
      desc.pipe = *right;
    } else if (desc.kind == FileDesc::Kind::kPipeWrite) {
      auto right = kernel.MakeSendRight(*task_, desc.pipe, *child_task);
      if (!right.ok()) {
        return right.status();
      }
      desc.pipe = *right;
    }
  }
  // Mappings are inherited: TaskForkVm already duplicated the vm entries
  // (shared regions stay shared, private ones grow fork shadows), so only
  // the personality records and the server's map counts need to follow.
  child->mappings_ = mappings_;
  for (const Mapping& m : child->mappings_) {
    (void)fs_->MapObject(env, m.handle, m.len);  // same node → same object id
    ++pers_->live_mappings_;
  }
  child->main_thread_ = kernel.CreateThread(child_task, "forked-main", std::move(child_main));
  return child;
}

base::Result<int32_t> UnixProcess::WaitPid(mk::Env& env, UnixProcess* child) {
  pers_->kernel_.cpu().Execute(LibcRegion());
  if (child->main_thread_ == nullptr) {
    return base::Status::kInvalidArgument;
  }
  const base::Status st = pers_->kernel_.ThreadJoin(child->main_thread_);
  if (st != base::Status::kOk) {
    return st;
  }
  // Reap the dead child's mappings: its address space is gone, so its
  // mapping references must not keep the memory object alive — otherwise
  // "the last munmap discards un-synced dirty pages" would never trigger
  // for files a forked child once mapped. The release RPC rides the
  // PARENT's session (UnmapObject is keyed by object id, not handle), since
  // the child's port rights die with its task.
  for (const Mapping& m : child->mappings_) {
    (void)pers_->kernel_.VmDeallocate(*child->task_, m.addr, m.len);
    auto remaining = fs_->UnmapObject(env, m.object_id);
    if (remaining.ok() && *remaining == 0) {
      (void)pers_->kernel_.ReleasePagedObject(m.object_id);
    }
    if (pers_->live_mappings_ > 0) {
      --pers_->live_mappings_;
    }
  }
  child->mappings_.clear();
  return child->exit_code_;
}

void UnixProcess::Exit(mk::Env& env, int32_t code) {
  pers_->kernel_.cpu().Execute(LibcRegion());
  exit_code_ = code;
  exited_ = true;
}

}  // namespace pers
