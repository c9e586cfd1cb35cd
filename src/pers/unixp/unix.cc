#include "src/pers/unixp/unix.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/mk/trace/tracer.h"

namespace pers {

namespace {
const hw::CodeRegion& LibcRegion() {
  // The POSIX-ish libc stub layer over the personality-neutral services.
  static const hw::CodeRegion r = hw::DefineCode("unix.lib.libc_stub", 80);
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

UnixProcess::UnixProcess(UnixPersonality* pers, mk::Task* task) : pers_(pers), task_(task) {
  fs_ = std::make_unique<svc::FsClient>(pers->fs_.GrantTo(*task), pers->io_timeout_ns_);
  if (pers->fs_cache_on_) {
    fs_->EnableCache();
  }
}

UnixProcess* UnixPersonality::Spawn(const std::string& name, mk::ThreadBody main) {
  mk::Task* task = kernel_.CreateTask("unix." + name, 4096);
  processes_.push_back(std::unique_ptr<UnixProcess>(new UnixProcess(this, task)));
  kernel_.CreateThread(task, name, std::move(main));
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
  fds_.emplace(fd, FileDesc{*handle, 0, flags});
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
  if ((desc.flags & kOAppend) != 0) {
    // O_APPEND: the write lands at the *current* end of file. The per-fd
    // offset can be stale — another descriptor may have grown the file
    // since this fd last wrote.
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

base::Result<uint64_t> UnixProcess::Lseek(mk::Env& env, int fd, int64_t offset, int whence) {
  pers_->kernel_.cpu().Execute(LibcRegion());
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
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
  if (it == fds_.end()) {
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
                                      /*anywhere=*/true);
  } else {
    // MAP_PRIVATE: an anonymous shadow over the managed object. Stores COW
    // into the shadow and never reach the file object, so msync correctly
    // writes back only shared-mapping dirt.
    auto shadow = std::make_shared<mk::VmObject>(object->size());
    shadow->SetShadow(object);
    addr = pers_->kernel_.VmMapObject(*task_, std::move(shadow), 0, map_len,
                                      mk::Prot::kReadWrite, /*anywhere=*/true);
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
  const base::Status st = fs_->Close(env, it->second.handle);
  fds_.erase(it);
  return st;
}

}  // namespace pers
