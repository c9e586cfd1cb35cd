#include "src/svc/fs/file_server.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "src/base/log.h"
#include "src/mk/pager_protocol.h"

namespace svc {

namespace {
const hw::CodeRegion& WalkRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.walk", 150);
  return r;
}
const hw::CodeRegion& UnionSemRegion() {
  // The union-of-personalities semantic checks around every operation.
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.union_sem", 190);
  return r;
}
const hw::CodeRegion& CaseScanRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.case_scan", 120);
  return r;
}

std::string LowerCase(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

FsAttrWire WireAttr(const FileAttr& attr) {
  return {attr.size, attr.directory ? uint8_t{1} : uint8_t{0}};
}
}  // namespace

FileServer::FileServer(mk::Kernel& kernel, mk::Task* task, uint64_t handle_base)
    : kernel_(kernel), task_(task), next_handle_(handle_base == 0 ? 1 : handle_base) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  // kWriteV carries its extent table in front of the payload bytes.
  loop_ = std::make_unique<mk::ServerLoop>(receive_port_, "fs",
                                           kFsMaxIo + kFsMaxExtents * sizeof(FsExtent));
  kernel_.CreateThread(task_, "file-server", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 2);
}

void FileServer::Stop() {
  loop_->Stop();
  if (pager_loop_ != nullptr) {
    pager_loop_->Stop();
  }
}

base::Status FileServer::AddMount(const std::string& prefix, Pfs* pfs) {
  std::string canon = prefix;
  while (canon.size() > 1 && canon.back() == '/') {
    canon.pop_back();
  }
  if (canon.empty() || canon.front() != '/') {
    return base::Status::kInvalidArgument;
  }
  for (const auto& m : mounts_) {
    if (m->prefix == canon) {
      return base::Status::kAlreadyExists;
    }
  }
  auto mount = std::make_unique<Mount>();
  mount->prefix = canon;
  mount->pfs = pfs;
  mounts_.push_back(std::move(mount));
  // Longest prefix first.
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) { return a->prefix.size() > b->prefix.size(); });
  return base::Status::kOk;
}

base::Status FileServer::AddVolume(const std::string& prefix, mks::BlockStore* store,
                                   PfsKind kind, uint64_t fs_sectors, uint32_t cache_sectors) {
  auto volume = std::make_unique<Volume>(kernel_, store, kind, fs_sectors, cache_sectors);
  const base::Status st = AddMount(prefix, &volume->pfs());
  if (st == base::Status::kOk) {
    volumes_.push_back(std::move(volume));
  }
  return st;
}

void FileServer::StartMkfs() {
  kernel_.CreateThread(task_, "mkfs", [this](mk::Env& env) {
    for (const auto& volume : volumes_) {
      WPOS_CHECK(volume->pfs().Format(env) == base::Status::kOk);
    }
    formatted_ = true;
  });
}

void FileServer::AwaitMkfs(mk::Env& env) {
  while (!formatted_) {
    (void)env.SleepNs(200'000);
  }
}

mk::PortName FileServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void FileServer::EnableMapping() {
  if (pager_loop_ != nullptr) {
    return;
  }
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  pager_port_raw_ = *kernel_.ResolvePort(*task_, *port);
  // In: one page (a kDataWrite's payload).
  pager_loop_ = std::make_unique<mk::ServerLoop>(*port, "fs_pager", hw::kPageSize);
  kernel_.CreateThread(task_, "fs-pager", [this](mk::Env& env) { ServePager(env); },
                       mk::Thread::kDefaultPriority + 3);
}

void FileServer::InvalidateMappedRange(Mount* mount, NodeId node, uint64_t offset, uint64_t len) {
  if (node_map_.empty() || len == 0) {
    return;
  }
  auto it = node_map_.find(NodeKey(mount, node));
  if (it == node_map_.end()) {
    return;
  }
  MapObjectState& st = map_objects_[it->second];
  const uint64_t end = len > ~0ull - offset ? ~0ull : offset + len;
  const uint64_t first = offset >> hw::kPageShift;
  const uint64_t count = ((end - 1) >> hw::kPageShift) - first + 1;
  // Invalidate through the registry, not our captured reference: after a
  // server crash a client can re-point (adopt) its surviving object under
  // this id, and the invalidation must reach the object clients actually map.
  auto current = kernel_.LookupPagedObject(st.object_id);
  mk::VmObject* target = current != nullptr ? current.get() : st.object.get();
  // Only clean pages are dropped: a dirty mapped page is newer than (or
  // concurrent with) this file write, and msync decides its fate.
  (void)kernel_.VmObjectInvalidate(target, first, count, /*clean_only=*/true);
}

FileServer::Mount* FileServer::MountFor(const std::string& path, std::string* rest) {
  if (path.empty() || path.front() != '/') {
    return nullptr;  // empty or relative: no such file, as POSIX open("") is ENOENT
  }
  for (const auto& m : mounts_) {
    const std::string& p = m->prefix;
    if (p == "/") {
      *rest = path.substr(1);
      return m.get();
    }
    if (path.compare(0, p.size(), p) == 0 &&
        (path.size() == p.size() || path[p.size()] == '/')) {
      *rest = path.size() == p.size() ? "" : path.substr(p.size() + 1);
      return m.get();
    }
  }
  return nullptr;
}

base::Result<NodeId> FileServer::LookupChild(mk::Env& env, Mount* mount, NodeId dir,
                                             const std::string& name, bool case_insensitive) {
  auto direct = mount->pfs->Lookup(env, dir, name);
  if (direct.ok() || !case_insensitive || !mount->pfs->case_sensitive()) {
    return direct;
  }
  // Union-semantics fallback: a case-insensitive personality looking at a
  // case-sensitive store must scan the directory — slow and ambiguous, one
  // of the compromises the paper describes.
  kernel_.cpu().Execute(CaseScanRegion());
  auto entries = mount->pfs->ReadDir(env, dir);
  if (!entries.ok()) {
    return entries.status();
  }
  const std::string wanted = LowerCase(name);
  for (const DirEntry& e : *entries) {
    kernel_.cpu().Execute(CaseScanRegion());
    if (LowerCase(e.name) == wanted) {
      return e.node;
    }
  }
  return base::Status::kNotFound;
}

base::Result<NodeId> FileServer::Walk(mk::Env& env, Mount* mount, const std::string& rest,
                                      bool case_insensitive, NodeId* parent, std::string* leaf,
                                      bool stop_at_parent) {
  kernel_.cpu().Execute(WalkRegion());
  NodeId dir = mount->pfs->root();
  const std::vector<std::string> parts = SplitPath(rest);
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    auto next = LookupChild(env, mount, dir, parts[i], case_insensitive);
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
  if (stop_at_parent) {
    return dir;
  }
  return LookupChild(env, mount, dir, parts.back(), case_insensitive);
}

bool FileServer::LockConflicts(const NodeState& state, uint64_t start, uint64_t len,
                               bool exclusive, uint64_t handle) const {
  for (const LockRange& l : state.locks) {
    if (l.handle == handle) {
      continue;  // a handle never conflicts with its own locks
    }
    const bool overlap = start < l.start + l.len && l.start < start + len;
    if (overlap && (exclusive || l.exclusive)) {
      return true;
    }
  }
  return false;
}

base::Status FileServer::Validate(const mk::RpcRequest& rpc, const FsRequest& r,
                                  const uint8_t* ref_data, uint32_t ref_len, IoExtents* io) {
  // The bytes received hold the op's fixed part and every string it reads
  // through its NUL, so every handler may treat those strings as C strings.
  const uint32_t wire_len = FsWireLength(r);
  if (wire_len == 0 || wire_len > rpc.req_len) {
    return base::Status::kInvalidArgument;
  }
  const bool vectored = r.op == FsOp::kReadV || r.op == FsOp::kWriteV;
  switch (r.op) {
    case FsOp::kLock:
    case FsOp::kUnlock:
      // A lock range ends inside 64 bits: LockConflicts compares its end.
      return r.len > ~0ull - r.offset ? base::Status::kInvalidArgument : base::Status::kOk;
    case FsOp::kRead:
    case FsOp::kWrite:
      io->at[0] = FsExtent{r.offset, r.len, 0};
      io->count = 1;
      break;
    case FsOp::kReadV:
    case FsOp::kWriteV:
      if (r.extent_count == 0 || r.extent_count > kFsMaxExtents ||
          ref_len < r.extent_count * sizeof(FsExtent)) {
        return base::Status::kInvalidArgument;
      }
      io->count = r.extent_count;
      std::memcpy(io->at, ref_data, io->count * sizeof(FsExtent));
      break;
    default:
      return base::Status::kOk;
  }
  // An I/O request moves at most kFsMaxIo bytes, and a write carries exactly
  // its extents' bytes behind the table.
  const uint32_t table_bytes = vectored ? io->count * static_cast<uint32_t>(sizeof(FsExtent)) : 0;
  uint64_t total = 0;
  for (uint32_t i = 0; i < io->count; ++i) {
    total += io->at[i].len;
  }
  io->payload = ref_data + table_bytes;
  const bool write = r.op == FsOp::kWrite || r.op == FsOp::kWriteV;
  if (total > kFsMaxIo || (write && (total != r.len || ref_len != table_bytes + total))) {
    return base::Status::kInvalidArgument;
  }
  return base::Status::kOk;
}

base::Status FileServer::Dispatch(mk::Env& env, const FsRequest& r, IoExtents& io, Answer& a) {
  const auto it = open_files_.find(r.handle);
  OpenFile* of = it != open_files_.end() ? &it->second : nullptr;
  const bool read = r.op == FsOp::kRead || r.op == FsOp::kReadV;
  if (read || r.op == FsOp::kWrite || r.op == FsOp::kWriteV) {
    if (of == nullptr) {
      return base::Status::kInvalidArgument;
    }
    kernel_.cpu().AccessData(of->sim_addr, 48, /*write=*/true);
    return read ? ReadExtents(env, *of, io, a) : WriteExtents(env, r.handle, *of, io, a);
  }
  // Every other op starts with the union-of-personalities checks.
  kernel_.cpu().Execute(UnionSemRegion());
  switch (r.op) {
    case FsOp::kClose: {
      if (of == nullptr) {
        return base::Status::kNotFound;
      }
      auto key = NodeKey(of->mount, of->node);
      NodeState& state = node_states_[key];
      // Drop this handle's locks.
      std::erase_if(state.locks, [&](const LockRange& l) { return l.handle == r.handle; });
      --state.open_count;
      if ((of->flags & (kFsWrite | kFsTruncate | kFsAppend)) != 0) {
        --state.writers;
      }
      if (of->share == FsShare::kDenyWrite) {
        --state.deny_write;
      } else if (of->share == FsShare::kDenyAll) {
        --state.deny_all;
      }
      if (state.open_count == 0 && state.delete_on_close && !state.name.empty()) {
        (void)of->mount->pfs->Remove(env, state.parent, state.name);
      }
      if (state.open_count == 0) {
        node_states_.erase(key);
      }
      (void)kernel_.PortDestroy(*task_, of->file_port);
      open_files_.erase(it);
      return base::Status::kOk;
    }
    case FsOp::kLock:
    case FsOp::kUnlock: {
      if (of == nullptr) {
        return base::Status::kNotFound;
      }
      NodeState& state = node_states_[NodeKey(of->mount, of->node)];
      if (r.op == FsOp::kUnlock) {
        const size_t dropped = std::erase_if(state.locks, [&](const LockRange& l) {
          return l.handle == r.handle && l.start == r.offset && l.len == r.len;
        });
        return dropped == 0 ? base::Status::kNotFound : base::Status::kOk;
      }
      if (LockConflicts(state, r.offset, r.len, r.lock_exclusive != 0, r.handle)) {
        return base::Status::kBusy;
      }
      state.locks.push_back({r.offset, r.len, r.lock_exclusive != 0, r.handle});
      return base::Status::kOk;
    }
    case FsOp::kFsStat:
    case FsOp::kSetSize: {
      // Handle-based GetAttr and SetSize: no path walk, so a hot stat
      // (fstat, SEEK_END, O_APPEND positioning) costs one table lookup
      // instead of a name walk. A stale handle answers kInvalidArgument, the
      // signal a robust FsClient re-opens on.
      if (of == nullptr) {
        return base::Status::kInvalidArgument;
      }
      kernel_.cpu().AccessData(of->sim_addr, 48, /*write=*/r.op == FsOp::kSetSize);
      if (r.op == FsOp::kSetSize) {
        const base::Status st = of->mount->pfs->SetSize(env, of->node, r.offset);
        if (st != base::Status::kOk) {
          return st;
        }
        // Resizing moves EOF under every mapped view: drop all clean pages.
        InvalidateMappedRange(of->mount, of->node, 0, ~0ull);
      }
      auto attr = of->mount->pfs->GetAttr(env, of->node);
      if (!attr.ok()) {
        return attr.status();
      }
      a.reply.attr = WireAttr(*attr);
      return base::Status::kOk;
    }
    case FsOp::kMapObject:
      if (pager_port_raw_ == nullptr) {
        return base::Status::kNotSupported;
      }
      return of == nullptr ? base::Status::kInvalidArgument : MapObject(env, r, *of, a);
    case FsOp::kMapRelease: {
      auto mapped = map_objects_.find(r.handle);
      if (mapped == map_objects_.end()) {
        return base::Status::kInvalidArgument;
      }
      if (mapped->second.map_count > 0) {
        --mapped->second.map_count;
      }
      // State lives until the kernel's kObjectTerminate reaches the pager
      // port; the count only tells the caller whether it was the last mapper.
      a.reply.len = mapped->second.map_count;
      return base::Status::kOk;
    }
    default:
      return PathOp(env, r, a);
  }
}

base::Status FileServer::ReadExtents(mk::Env& env, const OpenFile& of, const IoExtents& io,
                                     Answer& a) {
  for (uint32_t i = 0; i < io.count; ++i) {
    auto got = of.mount->pfs->Read(env, of.node, io.at[i].offset, io_.data() + a.payload_len,
                                   io.at[i].len);
    if (!got.ok()) {
      return got.status();
    }
    ++reads_;
    a.payload_len += *got;
    if (*got < io.at[i].len) {
      break;  // short extent (EOF): later extents are not attempted
    }
  }
  a.reply.len = a.payload_len;
  return base::Status::kOk;
}

base::Status FileServer::WriteExtents(mk::Env& env, uint64_t handle, const OpenFile& of,
                                      IoExtents& io, Answer& a) {
  if ((of.flags & kFsAppend) != 0) {
    // UNIX O_APPEND semantics: the extents land back to back at EOF.
    auto attr = of.mount->pfs->GetAttr(env, of.node);
    for (uint32_t i = 0; attr.ok() && i < io.count; ++i) {
      io.at[i].offset = i == 0 ? attr->size : io.at[i - 1].offset + io.at[i - 1].len;
    }
  }
  // Byte-range lock enforcement, before any extent is written.
  const NodeState& state = node_states_[NodeKey(of.mount, of.node)];
  for (uint32_t i = 0; i < io.count; ++i) {
    if (LockConflicts(state, io.at[i].offset, io.at[i].len, /*exclusive=*/true, handle)) {
      return base::Status::kBusy;
    }
  }
  for (uint32_t i = 0; i < io.count; ++i) {
    auto wrote = of.mount->pfs->Write(env, of.node, io.at[i].offset, io.payload + a.reply.len,
                                      io.at[i].len);
    if (!wrote.ok()) {
      return wrote.status();
    }
    ++writes_;
    InvalidateMappedRange(of.mount, of.node, io.at[i].offset, *wrote);
    a.reply.len += *wrote;
    if (*wrote < io.at[i].len) {
      break;
    }
  }
  return base::Status::kOk;
}

base::Status FileServer::MapObject(mk::Env& env, const FsRequest& r, const OpenFile& of,
                                   Answer& a) {
  auto attr = of.mount->pfs->GetAttr(env, of.node);
  if (!attr.ok()) {
    return attr.status();
  }
  const auto key = NodeKey(of.mount, of.node);
  auto existing = node_map_.find(key);
  if (existing != node_map_.end()) {
    // All mappings of one node share one memory object: that sharing IS the
    // coherence between two clients mapping the same file.
    MapObjectState& mapped = map_objects_[existing->second];
    ++mapped.map_count;
    a.reply.handle = mapped.object_id;
  } else {
    const uint64_t want = std::max<uint64_t>(std::max<uint64_t>(r.len, attr->size), 1);
    auto object = std::make_shared<mk::VmObject>(hw::PageRound(want));
    object->EnableDirtyTracking();
    const uint64_t id = kernel_.RegisterPagedObject(object, pager_port_raw_, 0);
    MapObjectState mapped;
    mapped.object = std::move(object);
    mapped.object_id = id;
    mapped.map_count = 1;
    mapped.mount = of.mount;
    mapped.node = of.node;
    node_map_.emplace(key, id);
    map_objects_.emplace(id, std::move(mapped));
    a.reply.handle = id;
  }
  a.reply.attr = WireAttr(*attr);
  return base::Status::kOk;
}

void FileServer::ServePager(mk::Env& env) {
  static const hw::CodeRegion kPagerLoop = hw::DefineCode("svc.fs.pager", 230);
  // Out: a full readahead batch.
  std::vector<uint8_t> io(static_cast<size_t>(mk::Costs::kMmapReadaheadPages) * hw::kPageSize);
  pager_loop_->Run<mk::PagerRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc,
                                              const mk::PagerRequest& req, const uint8_t* page,
                                              uint32_t page_len) {
    kernel_.cpu().Execute(kPagerLoop);
    auto it = map_objects_.find(req.object_id);
    base::Status st = base::Status::kOk;
    uint32_t bytes = 0;  // of `io`, sent when the op succeeds
    switch (req.op) {
      case mk::PagerOp::kDataRequest: {
        if (it == map_objects_.end()) {
          st = base::Status::kInvalidArgument;
          break;
        }
        MapObjectState& mapped = it->second;
        const uint64_t object_pages = mapped.object->size() >> hw::kPageShift;
        uint64_t want = 1;
        if (mapped.object->dirty_tracking() && req.page_index < object_pages) {
          want = std::min<uint64_t>(mk::Costs::kMmapReadaheadPages, object_pages - req.page_index);
        }
        bytes = static_cast<uint32_t>(want * hw::kPageSize);
        std::memset(io.data(), 0, bytes);
        // A short (or failed) read leaves zeros: pages at and past EOF map
        // in as zeros, the same bytes read() can never return.
        (void)mapped.mount->pfs->Read(env, mapped.node, req.page_index << hw::kPageShift,
                                      io.data(), bytes);
        ++pageins_;
        break;
      }
      case mk::PagerOp::kDataWrite: {
        if (it == map_objects_.end() || page_len != hw::kPageSize) {
          st = base::Status::kInvalidArgument;
          break;
        }
        MapObjectState& mapped = it->second;
        const uint64_t offset = req.page_index << hw::kPageShift;
        auto attr = mapped.mount->pfs->GetAttr(env, mapped.node);
        const uint64_t limit = attr.ok() ? attr->size : 0;
        if (offset < limit) {
          // Writeback never extends the file: a mapped store past EOF is
          // only durable up to the current size (msync through a session
          // that also grows the file is the personality's business).
          const uint32_t n =
              static_cast<uint32_t>(std::min<uint64_t>(hw::kPageSize, limit - offset));
          st = mapped.mount->pfs->Write(env, mapped.node, offset, page, n).status();
        }
        ++pageouts_;
        break;
      }
      case mk::PagerOp::kObjectSetup:
        if (it == map_objects_.end()) {
          st = base::Status::kInvalidArgument;
        }
        break;
      case mk::PagerOp::kObjectTerminate:
        if (it != map_objects_.end()) {
          node_map_.erase(NodeKey(it->second.mount, it->second.node));
          map_objects_.erase(it);
        }
        break;
      default:
        st = base::Status::kNotSupported;
    }
    const mk::PagerReply reply{static_cast<int32_t>(st)};
    pager_loop_->Reply(rpc, &reply, sizeof(reply), io.data(), st == base::Status::kOk ? bytes : 0);
  });
}

base::Status FileServer::PathOp(mk::Env& env, const FsRequest& r, Answer& a) {
  std::string rest;
  Mount* mount = MountFor(r.path, &rest);
  if (mount == nullptr) {
    return base::Status::kNotFound;
  }
  const bool ci = (r.flags & kFsCaseInsensitive) != 0;
  switch (r.op) {
    case FsOp::kOpen:
      return Open(env, r, mount, rest, a);
    case FsOp::kGetAttr: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        return node.status();
      }
      auto attr = mount->pfs->GetAttr(env, *node);
      if (!attr.ok()) {
        return attr.status();
      }
      a.reply.attr = WireAttr(*attr);
      return base::Status::kOk;
    }
    case FsOp::kMkdir: {
      NodeId parent = 0;
      std::string leaf;
      auto st = Walk(env, mount, rest, ci, &parent, &leaf, /*stop_at_parent=*/true);
      if (!st.ok()) {
        return st.status();
      }
      if (leaf.empty()) {
        return base::Status::kInvalidArgument;
      }
      return mount->pfs->Create(env, parent, leaf, /*directory=*/true).status();
    }
    case FsOp::kUnlink: {
      NodeId parent = 0;
      std::string leaf;
      auto node = Walk(env, mount, rest, ci, &parent, &leaf, false);
      if (!node.ok()) {
        return node.status();
      }
      // Union rule: an open file cannot be unlinked by path on OS/2; UNIX
      // would allow it. The server takes the restrictive intersection and
      // reports busy (one of the inevitable compromises).
      if (node_states_.contains(NodeKey(mount, *node))) {
        return base::Status::kBusy;
      }
      return mount->pfs->Remove(env, parent, leaf);
    }
    case FsOp::kRename: {
      NodeId from_parent = 0;
      std::string from_leaf;
      auto node = Walk(env, mount, rest, ci, &from_parent, &from_leaf, false);
      if (!node.ok()) {
        return node.status();
      }
      // Union rule, as for unlink: an open file keeps its name, as OS/2
      // requires; UNIX would allow the rename.
      if (node_states_.contains(NodeKey(mount, *node))) {
        return base::Status::kBusy;
      }
      std::string rest2;
      Mount* mount2 = MountFor(r.path2, &rest2);
      if (mount2 == nullptr) {
        return base::Status::kNotFound;
      }
      if (mount2 != mount) {
        return base::Status::kNotSupported;  // cross-FS rename
      }
      NodeId to_parent = 0;
      std::string to_leaf;
      auto tst = Walk(env, mount, rest2, ci, &to_parent, &to_leaf, /*stop_at_parent=*/true);
      if (!tst.ok()) {
        return tst.status();
      }
      return mount->pfs->Rename(env, from_parent, from_leaf, to_parent, to_leaf);
    }
    case FsOp::kReadDir: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        return node.status();
      }
      auto entries = mount->pfs->ReadDir(env, *node);
      if (!entries.ok()) {
        return entries.status();
      }
      const size_t count = std::min(entries->size(), io_.size() / sizeof(FsDirEntryWire));
      for (size_t i = 0; i < count; ++i) {
        FsDirEntryWire w;
        std::strncpy(w.name, (*entries)[i].name.c_str(), sizeof(w.name) - 1);
        w.directory = (*entries)[i].directory ? 1 : 0;
        std::memcpy(io_.data() + i * sizeof(w), &w, sizeof(w));
      }
      a.reply.len = static_cast<uint32_t>(count);
      a.payload_len = static_cast<uint32_t>(count * sizeof(FsDirEntryWire));
      return base::Status::kOk;
    }
    case FsOp::kSetEa: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        return node.status();
      }
      // Value travels in path2 after the key's NUL: "key\0value\0". The
      // validation step checked that both end inside the bytes received.
      const std::string key(r.path2);
      return mount->pfs->SetEa(env, *node, key, r.path2 + key.size() + 1);
    }
    case FsOp::kGetEa: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        return node.status();
      }
      auto value = mount->pfs->GetEa(env, *node, r.path2);
      if (!value.ok()) {
        return value.status();
      }
      a.payload_len = static_cast<uint32_t>(std::min(value->size(), io_.size()));
      std::memcpy(io_.data(), value->data(), a.payload_len);
      a.reply.len = a.payload_len;
      return base::Status::kOk;
    }
    case FsOp::kSync: {
      // Every mount is synced; the answer is the first failure.
      base::Status first = base::Status::kOk;
      for (const auto& m : mounts_) {
        const base::Status st = m->pfs->Sync(env);
        if (first == base::Status::kOk) {
          first = st;
        }
      }
      return first;
    }
    default:
      return base::Status::kNotSupported;
  }
}

base::Status FileServer::Open(mk::Env& env, const FsRequest& r, Mount* mount,
                              const std::string& rest, Answer& a) {
  const bool ci = (r.flags & kFsCaseInsensitive) != 0;
  NodeId parent = 0;
  std::string leaf;
  auto node = Walk(env, mount, rest, ci, &parent, &leaf, /*stop_at_parent=*/false);
  if (!node.ok() && node.status() == base::Status::kNotFound && (r.flags & kFsCreate) != 0 &&
      !leaf.empty()) {
    node = mount->pfs->Create(env, parent, leaf, /*directory=*/false);
  } else if (node.ok() && (r.flags & kFsExclusive) != 0 && (r.flags & kFsCreate) != 0) {
    return base::Status::kAlreadyExists;
  }
  if (!node.ok()) {
    return node.status();
  }
  // Sharing-mode admission (OS/2 deny modes). A node that no handle holds
  // open has no state: it is made only once the open commits, so an open
  // that fails leaves no entry to make the file look open.
  static const NodeState kUnopened;
  const auto found = node_states_.find(NodeKey(mount, *node));
  const NodeState& seen = found != node_states_.end() ? found->second : kUnopened;
  const bool wants_write = (r.flags & (kFsWrite | kFsTruncate | kFsAppend)) != 0;
  if (seen.deny_all > 0 || (wants_write && seen.deny_write > 0) ||
      (r.share == FsShare::kDenyAll && seen.open_count > 0) ||
      (r.share == FsShare::kDenyWrite && seen.writers > 0)) {
    return base::Status::kBusy;
  }
  if ((r.flags & kFsTruncate) != 0) {
    const base::Status st = mount->pfs->SetSize(env, *node, 0);
    if (st != base::Status::kOk && st != base::Status::kNotSupported) {
      return st;
    }
    InvalidateMappedRange(mount, *node, 0, ~0ull);
  }
  // The open file's kernel memory is taken before anything is counted, so an
  // open the heap cannot hold answers kResourceShortage and leaves no trace.
  const base::Result<hw::PhysAddr> sim_addr = kernel_.heap().TryAllocate(96);
  // The open file is represented by a port granted to the client.
  const base::Result<mk::PortName> file_port =
      sim_addr.ok() ? kernel_.PortAllocate(*task_) : sim_addr.status();
  if (!file_port.ok()) {
    return file_port.status();
  }
  NodeState& state = node_states_[NodeKey(mount, *node)];
  ++state.open_count;
  if (wants_write) {
    ++state.writers;
  }
  if (r.share == FsShare::kDenyWrite) {
    ++state.deny_write;
  } else if (r.share == FsShare::kDenyAll) {
    ++state.deny_all;
  }
  if ((r.flags & kFsDeleteOnClose) != 0) {
    state.delete_on_close = true;
    state.parent = parent;
    state.name = leaf;
  }
  OpenFile of;
  of.mount = mount;
  of.node = *node;
  of.flags = r.flags;
  of.share = r.share;
  of.sim_addr = *sim_addr;
  of.file_port = *file_port;
  const uint64_t handle = next_handle_++;
  open_files_.emplace(handle, of);
  ++opens_;
  a.reply.handle = handle;
  auto attr = mount->pfs->GetAttr(env, *node);
  if (attr.ok()) {
    a.reply.attr = WireAttr(*attr);
  }
  a.grant = *file_port;
  return base::Status::kOk;
}

void FileServer::Serve(mk::Env& env) {
  static const hw::CodeRegion kLoop = hw::DefineCode("loop.fs", mk::Costs::kRpcServerLoop);
  static const hw::CodeRegion kStub = hw::DefineCode("stub.fs", mk::Costs::kRpcServerStub);
  loop_->Run<FsRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                                 const uint8_t* ref_data, uint32_t ref_len) {
    if (!loop_->EnterHandler(env, rpc)) {
      return;
    }
    kernel_.cpu().Execute(kLoop);
    kernel_.cpu().Execute(kStub);
    IoExtents io;
    Answer a;
    base::Status st = Validate(rpc, r, ref_data, ref_len, &io);
    if (st == base::Status::kOk) {
      st = Dispatch(env, r, io, a);
    }
    if (st != base::Status::kOk) {
      // A failed operation answers its status alone.
      a = Answer{.reply = {.status = static_cast<int32_t>(st)}};
    }
    loop_->Reply(rpc, &a.reply, sizeof(a.reply), io_.data(), a.payload_len, a.grant);
  });
  // The service loop is gone (Stop, or an injected kKillPort): the fs-pager
  // port goes with it. A dead task needs no help — its teardown destroyed
  // every port it held.
  if (pager_loop_ != nullptr && !task_->terminated()) {
    pager_loop_->Stop();
  }
}

// --- Client ------------------------------------------------------------------------------

namespace {
FsRequest OpenRequest(const std::string& path, uint32_t flags, FsShare share) {
  FsRequest r;
  r.op = FsOp::kOpen;
  r.flags = flags;
  r.share = share;
  r.SetPath(path.c_str());
  return r;
}

FsRequest PathRequest(FsOp op, const std::string& path) {
  FsRequest r;
  r.op = op;
  r.SetPath(path.c_str());
  return r;
}

FileAttr AttrOf(const FsReply& reply) {
  return FileAttr{.size = reply.attr.size, .directory = reply.attr.directory != 0};
}
}  // namespace

FsClient::FsClient(mk::PortName service, uint64_t call_timeout_ns)
    : stub_region_(hw::DefineKernelCode("cstub.svc.fs.client", mk::Costs::kRpcClientStub)),
      port_(service), call_timeout_ns_(call_timeout_ns) {}

FsClient::FsClient(mk::PortName name_service, std::string fs_name,
                   const mk::RobustCallOptions& opts)
    : stub_region_(hw::DefineKernelCode("cstub.svc.fs.client", mk::Costs::kRpcClientStub)),
      port_(mk::kNullPort), names_(std::in_place, name_service), fs_name_(std::move(fs_name)),
      robust_opts_(opts) {}

void FsClient::EnableCache() { cache_ = std::make_unique<FsCache>(); }

base::Status FsClient::Call(mk::Env& env, const FsRequest& req, FsReply* reply, mk::RpcRef* ref) {
  env.kernel().cpu().Execute(stub_region_);
  const uint32_t len = FsWireLength(req);
  WPOS_DCHECK(len != 0) << "FsClient built a request with an unterminated string";
  base::Status st;
  if (robust()) {
    const auto resolve = [this](mk::Env& e) { return names_->Resolve(e, fs_name_); };
    st = mk::RpcCallRobust(env, resolve, &port_, &req, len, reply, sizeof(*reply), robust_opts_,
                           nullptr, ref);
  } else {
    st = env.RpcCall(port_, &req, len, reply, sizeof(*reply), nullptr, ref, nullptr, 0, nullptr,
                     call_timeout_ns_);
  }
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply->status);
}

base::Status FsClient::CallOnHandle(mk::Env& env, uint64_t handle, FsRequest& req,
                                    FsReply* reply, mk::RpcRef* ref) {
  if (!robust()) {
    req.handle = handle;
    return Call(env, req, reply, ref);
  }
  auto it = opens_.find(handle);
  if (it == opens_.end()) {
    return base::Status::kInvalidArgument;
  }
  req.handle = it->second.server_handle;
  const base::Status st = Call(env, req, reply, ref);
  if (st != base::Status::kInvalidArgument) {
    return st;
  }
  // A respawned server doesn't know our handle: re-open by path and retry.
  const base::Status ro = Reopen(env, it->second);
  if (ro != base::Status::kOk) {
    return ro;
  }
  req.handle = it->second.server_handle;
  return Call(env, req, reply, ref);
}

base::Status FsClient::Reopen(mk::Env& env, OpenState& state) {
  // The server we cached against is gone: everything clean is suspect.
  OnServerDeath();
  // The file exists and holds data we must keep.
  const FsRequest r =
      OpenRequest(state.path, state.flags & ~(kFsExclusive | kFsTruncate), state.share);
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (st == base::Status::kOk) {
    state.server_handle = reply.handle;
  }
  return st;
}

base::Result<uint64_t> FsClient::Open(mk::Env& env, const std::string& path, uint32_t flags,
                                      FsShare share) {
  FsReply reply;
  const base::Status st = Call(env, OpenRequest(path, flags, share), &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  uint64_t handle = reply.handle;
  if (robust()) {
    handle = next_local_++;
    opens_[handle] = OpenState{path, flags, share, reply.handle};
  }
  if (cache_ != nullptr) {
    // The open reply already carries the attributes: the first Stat is free.
    cache_->PrimeAttr(handle, AttrOf(reply));
  }
  return handle;
}

base::Status FsClient::Close(mk::Env& env, uint64_t handle) {
  if (robust() && !opens_.contains(handle)) {
    return base::Status::kNotFound;
  }
  if (cache_ != nullptr) {
    // Flush the handle's write-behind run while the handle is still open
    // (a robust client re-opens transparently if the server died).
    const base::Status fl = cache_->CloseHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsRequest r;
  r.op = FsOp::kClose;
  FsReply reply;
  const base::Status st = CallOnHandle(env, handle, r, &reply);
  if (!robust()) {
    return st;
  }
  opens_.erase(handle);
  // The respawned server never saw this open; nothing to close.
  return st == base::Status::kNotFound ? base::Status::kOk : st;
}

base::Result<uint32_t> FsClient::Read(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                                      uint32_t len) {
  if (cache_ != nullptr) {
    return cache_->Read(env, *this, handle, offset, out, len);
  }
  return UncachedRead(env, handle, offset, out, len);
}

base::Result<uint32_t> FsClient::UncachedRead(mk::Env& env, uint64_t handle, uint64_t offset,
                                              void* out, uint32_t len) {
  FsRequest r;
  r.op = FsOp::kRead;
  r.offset = offset;
  r.len = std::min(len, kFsMaxIo);
  FsReply reply;
  mk::RpcRef ref;
  ref.recv_buf = out;
  ref.recv_cap = len;
  const base::Status st = CallOnHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  return reply.len;
}

base::Result<uint32_t> FsClient::Write(mk::Env& env, uint64_t handle, uint64_t offset,
                                       const void* data, uint32_t len) {
  if (cache_ != nullptr) {
    return cache_->Write(env, *this, handle, offset, data, len);
  }
  return UncachedWrite(env, handle, offset, data, len);
}

base::Result<uint32_t> FsClient::UncachedWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                               const void* data, uint32_t len) {
  FsRequest r;
  r.op = FsOp::kWrite;
  r.offset = offset;
  r.len = std::min(len, kFsMaxIo);  // short write past the cap, like Read
  FsReply reply;
  mk::RpcRef ref;
  ref.send_data = data;
  ref.send_len = r.len;
  const base::Status st = CallOnHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  return reply.len;
}

base::Result<uint32_t> FsClient::ReadV(mk::Env& env, uint64_t handle,
                                       const FsReadExtent* extents, uint32_t count) {
  if (count == 0 || count > kFsMaxExtents) {
    return base::Status::kInvalidArgument;
  }
  if (cache_ != nullptr) {
    // The scatter read goes to the server; pending write-behind must land
    // first so it observes them.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsExtent wire[kFsMaxExtents];
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    wire[i].offset = extents[i].offset;
    wire[i].len = extents[i].len;
    total += extents[i].len;
  }
  if (total > kFsMaxIo) {
    return base::Status::kInvalidArgument;
  }
  FsRequest r;
  r.op = FsOp::kReadV;
  r.extent_count = count;
  r.len = static_cast<uint32_t>(total);
  // The extent table rides out in the ref's send direction; the concatenated
  // extent data comes back in its receive direction — one RPC each way.
  std::vector<uint8_t> data(total);
  FsReply reply;
  mk::RpcRef ref;
  ref.send_data = wire;
  ref.send_len = static_cast<uint32_t>(count * sizeof(FsExtent));
  ref.recv_buf = data.data();
  ref.recv_cap = static_cast<uint32_t>(data.size());
  const base::Status st = CallOnHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  // Scatter the concatenated payload back into the caller's buffers.
  uint32_t consumed = 0;
  for (uint32_t i = 0; i < count && consumed < reply.len; ++i) {
    const uint32_t n = std::min(extents[i].len, reply.len - consumed);
    std::memcpy(extents[i].buf, data.data() + consumed, n);
    consumed += n;
  }
  return reply.len;
}

base::Result<uint32_t> FsClient::WriteV(mk::Env& env, uint64_t handle,
                                        const FsWriteExtent* extents, uint32_t count) {
  if (count == 0 || count > kFsMaxExtents) {
    return base::Status::kInvalidArgument;
  }
  if (cache_ != nullptr) {
    // Side door past the write-behind run: keep ordering (flush first), then
    // drop cached read/attr state the gather write may supersede.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
    cache_->InvalidateHandle(handle);
  }
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    total += extents[i].len;
  }
  if (total > kFsMaxIo) {
    return base::Status::kInvalidArgument;
  }
  // Gather [extent table][payload bytes] into one bulk buffer.
  const uint32_t table_bytes = static_cast<uint32_t>(count * sizeof(FsExtent));
  std::vector<uint8_t> bulk(table_bytes + total);
  FsExtent* wire = reinterpret_cast<FsExtent*>(bulk.data());
  uint32_t filled = 0;
  for (uint32_t i = 0; i < count; ++i) {
    wire[i] = FsExtent{extents[i].offset, extents[i].len, 0};
    std::memcpy(bulk.data() + table_bytes + filled, extents[i].buf, extents[i].len);
    filled += extents[i].len;
  }
  FsRequest r;
  r.op = FsOp::kWriteV;
  r.extent_count = count;
  r.len = static_cast<uint32_t>(total);
  FsReply reply;
  mk::RpcRef ref;
  ref.send_data = bulk.data();
  ref.send_len = static_cast<uint32_t>(bulk.size());
  const base::Status st = CallOnHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  return reply.len;
}

base::Result<FileAttr> FsClient::GetAttr(mk::Env& env, const std::string& path) {
  FsReply reply;
  const base::Status st = Call(env, PathRequest(FsOp::kGetAttr, path), &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  return AttrOf(reply);
}

base::Result<FileAttr> FsClient::Stat(mk::Env& env, uint64_t handle) {
  if (cache_ != nullptr) {
    return cache_->Stat(env, *this, handle);
  }
  return UncachedStat(env, handle);
}

base::Result<FileAttr> FsClient::UncachedStat(mk::Env& env, uint64_t handle) {
  FsRequest r;
  r.op = FsOp::kFsStat;
  FsReply reply;
  const base::Status st = CallOnHandle(env, handle, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  return AttrOf(reply);
}

base::Status FsClient::SetSize(mk::Env& env, uint64_t handle, uint64_t size) {
  if (cache_ != nullptr) {
    // Truncation past buffered bytes must not resurrect them: flush, call,
    // then drop every cached view of the handle.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
    cache_->InvalidateHandle(handle);
  }
  FsRequest r;
  r.op = FsOp::kSetSize;
  r.offset = size;
  FsReply reply;
  return CallOnHandle(env, handle, r, &reply);
}

base::Status FsClient::Mkdir(mk::Env& env, const std::string& path) {
  FsReply reply;
  return Call(env, PathRequest(FsOp::kMkdir, path), &reply);
}

base::Result<std::vector<DirEntry>> FsClient::ReadDir(mk::Env& env, const std::string& path) {
  FsReply reply;
  std::vector<FsDirEntryWire> wire(kFsMaxIo / sizeof(FsDirEntryWire));
  mk::RpcRef ref;
  ref.recv_buf = wire.data();
  ref.recv_cap = static_cast<uint32_t>(wire.size() * sizeof(FsDirEntryWire));
  const base::Status st = Call(env, PathRequest(FsOp::kReadDir, path), &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  std::vector<DirEntry> out;
  for (uint32_t i = 0; i < reply.len; ++i) {
    out.push_back({wire[i].name, 0, wire[i].directory != 0});
  }
  return out;
}

base::Status FsClient::Unlink(mk::Env& env, const std::string& path) {
  FsReply reply;
  return Call(env, PathRequest(FsOp::kUnlink, path), &reply);
}

base::Status FsClient::Rename(mk::Env& env, const std::string& from, const std::string& to) {
  FsRequest r = PathRequest(FsOp::kRename, from);
  r.SetPath2(to.c_str());
  FsReply reply;
  return Call(env, r, &reply);
}

base::Status FsClient::Lock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len,
                            bool exclusive) {
  if (len > UINT32_MAX) {
    return base::Status::kInvalidArgument;  // the wire carries 32 bits
  }
  if (cache_ != nullptr) {
    // Lock acquisition is a coherence point: another client may have written
    // the range since we cached it. Publish our pending bytes, drop ours.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
    cache_->InvalidateHandle(handle);
  }
  FsRequest r;
  r.op = FsOp::kLock;
  r.offset = start;
  r.len = static_cast<uint32_t>(len);
  r.lock_exclusive = exclusive ? 1 : 0;
  FsReply reply;
  return CallOnHandle(env, handle, r, &reply);
}

base::Status FsClient::Unlock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len) {
  if (len > UINT32_MAX) {
    return base::Status::kInvalidArgument;
  }
  if (cache_ != nullptr) {
    // Writes made under the lock must be visible before the lock drops.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsRequest r;
  r.op = FsOp::kUnlock;
  r.offset = start;
  r.len = static_cast<uint32_t>(len);
  FsReply reply;
  return CallOnHandle(env, handle, r, &reply);
}

base::Status FsClient::SetEa(mk::Env& env, const std::string& path, const std::string& key,
                             const std::string& value) {
  FsRequest r = PathRequest(FsOp::kSetEa, path);
  // Key + value + both NULs must fit the fixed path2 buffer; anything larger
  // would overflow the request struct.
  if (key.size() + value.size() + 2 > kFsMaxPath) {
    return base::Status::kInvalidArgument;
  }
  std::memcpy(r.path2, key.c_str(), key.size() + 1);
  std::memcpy(r.path2 + key.size() + 1, value.c_str(), value.size() + 1);
  FsReply reply;
  return Call(env, r, &reply);
}

base::Result<std::string> FsClient::GetEa(mk::Env& env, const std::string& path,
                                          const std::string& key) {
  FsRequest r = PathRequest(FsOp::kGetEa, path);
  r.SetPath2(key.c_str());
  FsReply reply;
  char value[256] = {};
  mk::RpcRef ref;
  ref.recv_buf = value;
  ref.recv_cap = sizeof(value) - 1;
  const base::Status st = Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  return std::string(value, reply.len);
}

base::Result<FsMapping> FsClient::MapObject(mk::Env& env, uint64_t handle, uint64_t min_len) {
  if (min_len > UINT32_MAX) {
    return base::Status::kInvalidArgument;
  }
  if (cache_ != nullptr) {
    // Mapped pages fault in from the server: pending write-behind must land
    // there first or the mapping would read stale bytes.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsRequest r;
  r.op = FsOp::kMapObject;
  r.len = static_cast<uint32_t>(min_len);
  FsReply reply;
  const base::Status st = CallOnHandle(env, handle, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  return FsMapping{reply.handle, reply.attr.size};
}

base::Result<uint32_t> FsClient::UnmapObject(mk::Env& env, uint64_t object_id) {
  FsRequest r;
  r.op = FsOp::kMapRelease;
  r.handle = object_id;
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (robust() && st == base::Status::kInvalidArgument) {
    // The instance that exported the object died, and its map counts with
    // it: the object has no mappings the respawn knows about.
    return 0u;
  }
  if (st != base::Status::kOk) {
    return st;
  }
  return reply.len;
}

base::Status FsClient::Flush(mk::Env& env, uint64_t handle) {
  if (cache_ == nullptr) {
    return base::Status::kOk;
  }
  return cache_->FlushHandle(env, *this, handle);
}

}  // namespace svc
