// The file server: the archetypal personality-neutral shared service.
//
// A separate user-level task providing generic file service over an extended
// vnode architecture (multiple physical file systems mounted into one rooted
// tree, integrated with the name service), with the *union* of the
// personalities' stateful semantics implemented server-side:
//   - OS/2: deny-mode sharing, delete-on-close, extended attributes,
//     case-insensitive lookup;
//   - UNIX: append mode, byte-range locks, case-sensitive lookup;
//   - TalOS: case-insensitive opens over case-preserving stores.
// Open files are tracked per handle with a port granted to the client (the
// paper: "heavy use of ports to manage open files").
#ifndef SRC_SVC_FS_FILE_SERVER_H_
#define SRC_SVC_FS_FILE_SERVER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"
#include "src/mks/naming/name_server.h"
#include "src/svc/fs/fs_cache.h"
#include "src/svc/fs/pfs.h"
#include "src/svc/fs/protocol.h"
#include "src/svc/fs/volume.h"

namespace svc {

class FileServer {
 public:
  // `handle_base` is where handle numbering starts. A restart factory passes
  // a per-generation base so a client's stale handle from the crashed
  // instance can never alias a live handle on the respawn — it fails with
  // kInvalidArgument and a robust FsClient re-opens.
  FileServer(mk::Kernel& kernel, mk::Task* task, uint64_t handle_base = 1);

  // Mounts `pfs` at `prefix` (e.g. "/os2"). Must happen before Run serves
  // requests that touch the prefix. The PFS must already be formatted.
  base::Status AddMount(const std::string& prefix, Pfs* pfs);
  // Builds a volume that this server owns, a `kind` file system of
  // `fs_sectors` over a cache of `cache_sectors` on `store`, and mounts it
  // at `prefix`. The store must outlive the server.
  base::Status AddVolume(const std::string& prefix, mks::BlockStore* store,
                         PfsKind kind = PfsKind::kHpfs, uint64_t fs_sectors = 65536,
                         uint32_t cache_sectors = 1024);
  // The i-th volume AddVolume built.
  Volume& volume(size_t i) { return *volumes_[i]; }
  // Starts an "mkfs" thread in the server's own task, where an RPC store's
  // send right to the disk driver lives, that formats every volume the
  // server holds when it runs. formatted() turns true when it is done;
  // AwaitMkfs sleeps 200 us at a time until then.
  void StartMkfs();
  bool formatted() const { return formatted_; }
  void AwaitMkfs(mk::Env& env);

  mk::Task* task() const { return task_; }
  mk::PortName receive_port() const { return receive_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once (and the
  // fs-pager port with it); queued and later callers get kPortDead.
  void Stop();

  // Turns the server into a pager: allocates a second service port, spawns a
  // "fs-pager" thread serving PagerOp requests against the mounted files, and
  // lets kMapObject export kernel memory objects for open files. Default-off:
  // without this call kMapObject answers kNotSupported and no extra thread
  // exists, so existing workloads are bit-identical. Call before Run.
  void EnableMapping();
  bool mapping_enabled() const { return pager_loop_ != nullptr; }
  // The fs-pager service port (kNullPort without EnableMapping).
  mk::PortName pager_port() const {
    return pager_loop_ != nullptr ? pager_loop_->port() : mk::kNullPort;
  }

  // Arms watchdog heartbeats on the service loop (mk::ServerLoop's). Call
  // before the server thread starts serving.
  void EnableHeartbeat(mk::PortName health_right, uint64_t every_requests, uint64_t every_ns) {
    loop_->EnableHeartbeat(health_right, every_requests, every_ns);
  }

  uint64_t opens() const { return opens_; }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  size_t open_files() const { return open_files_.size(); }
  uint64_t pageins() const { return pageins_; }
  uint64_t pageouts() const { return pageouts_; }
  size_t mapped_objects() const { return map_objects_.size(); }

 private:
  struct Mount {
    std::string prefix;  // "/", "/os2", ... canonical, no trailing slash
    Pfs* pfs = nullptr;
  };

  struct LockRange {
    uint64_t start = 0;
    uint64_t len = 0;
    bool exclusive = false;
    uint64_t handle = 0;
  };

  // Shared, per-file state (all opens of the same node).
  struct NodeState {
    uint32_t open_count = 0;
    uint32_t deny_write = 0;  // opens holding deny-write or deny-all
    uint32_t deny_all = 0;
    uint32_t writers = 0;
    bool delete_on_close = false;
    NodeId parent = 0;
    std::string name;  // for delete-on-close
    std::vector<LockRange> locks;
  };

  struct OpenFile {
    Mount* mount = nullptr;
    NodeId node = 0;
    uint32_t flags = 0;
    FsShare share = FsShare::kDenyNone;
    mk::PortName file_port = mk::kNullPort;  // identity object granted to the client
    hw::PhysAddr sim_addr = 0;
  };

  // One mapped file: the kernel VmObject exported for a node, shared by every
  // client mapping it. `map_count` counts kMapObject grants minus kMapRelease
  // drops; the state dies when the last mapping's kObjectTerminate arrives.
  struct MapObjectState {
    std::shared_ptr<mk::VmObject> object;
    uint64_t object_id = 0;
    uint32_t map_count = 0;
    Mount* mount = nullptr;
    NodeId node = 0;
  };

  // An I/O request's extents, as the validation step found them: kRead and
  // kWrite are one extent, kReadV and kWriteV carry a table at the front of
  // their ref data. A write's bytes follow the table in `payload`.
  struct IoExtents {
    FsExtent at[kFsMaxExtents];
    uint32_t count = 0;
    const uint8_t* payload = nullptr;
  };

  // What a successful operation answers besides its status: the reply's
  // fields, the first `payload_len` bytes of `io_`, and a granted port.
  struct Answer {
    FsReply reply;
    uint32_t payload_len = 0;
    mk::PortName grant = mk::kNullPort;
  };

  void Serve(mk::Env& env);
  void ServePager(mk::Env& env);
  // Drops clean resident pages of the node's mapped object overlapping
  // [offset, offset+len) so mapped readers refault and observe a write made
  // through the file API. No-op when the node isn't mapped.
  void InvalidateMappedRange(Mount* mount, NodeId node, uint64_t offset, uint64_t len);
  Mount* MountFor(const std::string& path, std::string* rest);
  // Walks `rest` within `mount`; returns the final node and (optionally) its
  // parent + leaf name, set once the walk reaches the parent (the root has
  // no leaf). Honours kFsCaseInsensitive over case-sensitive PFSes by
  // falling back to a directory scan (one of the union-semantics costs).
  base::Result<NodeId> Walk(mk::Env& env, Mount* mount, const std::string& rest,
                            bool case_insensitive, NodeId* parent, std::string* leaf,
                            bool stop_at_parent);
  base::Result<NodeId> LookupChild(mk::Env& env, Mount* mount, NodeId dir,
                                   const std::string& name, bool case_insensitive);

  // The one validation step for untrusted requests, run before any handler;
  // fills `io` for the four I/O ops.
  static base::Status Validate(const mk::RpcRequest& rpc, const FsRequest& r,
                               const uint8_t* ref_data, uint32_t ref_len, IoExtents* io);
  // One operation each: the status it answers, with `a` filled on success.
  base::Status Dispatch(mk::Env& env, const FsRequest& r, IoExtents& io, Answer& a);
  base::Status ReadExtents(mk::Env& env, const OpenFile& of, const IoExtents& io, Answer& a);
  base::Status WriteExtents(mk::Env& env, uint64_t handle, const OpenFile& of, IoExtents& io,
                            Answer& a);
  base::Status MapObject(mk::Env& env, const FsRequest& r, const OpenFile& of, Answer& a);
  base::Status PathOp(mk::Env& env, const FsRequest& r, Answer& a);
  base::Status Open(mk::Env& env, const FsRequest& r, Mount* mount, const std::string& rest,
                    Answer& a);

  bool LockConflicts(const NodeState& state, uint64_t start, uint64_t len, bool exclusive,
                     uint64_t handle) const;

  std::pair<uint64_t, uint64_t> NodeKey(Mount* m, NodeId n) const {
    return {reinterpret_cast<uint64_t>(m), n};
  }

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  std::vector<std::unique_ptr<Volume>> volumes_;
  bool formatted_ = false;
  std::vector<std::unique_ptr<Mount>> mounts_;  // longest prefix wins
  std::map<uint64_t, OpenFile> open_files_;
  std::map<std::pair<uint64_t, uint64_t>, NodeState> node_states_;
  uint64_t next_handle_ = 1;
  uint64_t opens_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  // The payload of the reply in progress: read bytes, directory entries or
  // an EA value. Each server has its own, since a read that misses the
  // cache yields with it half filled.
  std::vector<uint8_t> io_ = std::vector<uint8_t>(kFsMaxIo);
  // --- Mapping/pager state (EnableMapping) ---
  std::unique_ptr<mk::ServerLoop> pager_loop_;
  mk::Port* pager_port_raw_ = nullptr;
  std::map<uint64_t, MapObjectState> map_objects_;              // by object id
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> node_map_;  // NodeKey -> object id
  uint64_t pageins_ = 0;
  uint64_t pageouts_ = 0;
};

// Client-side scatter/gather descriptors for FsClient::ReadV/WriteV. Each
// extent names its own file offset and buffer; one RPC moves all of them.
struct FsReadExtent {
  uint64_t offset = 0;
  void* buf = nullptr;
  uint32_t len = 0;
};
struct FsWriteExtent {
  uint64_t offset = 0;
  const void* buf = nullptr;
  uint32_t len = 0;
};

// FsClient::MapObject result: the kernel memory-object id the server exported
// for the file, plus the file size at map time.
struct FsMapping {
  uint64_t object_id = 0;
  uint64_t size = 0;
};

// Client library: the RPC stubs a personality links against. Every operation
// marshals its FsRequest once and sends it through one call path, over one
// of two transports chosen at construction:
//
//   - plain: a send right to the server. Handles are the server's own, so a
//     forked UNIX child keeps using its parent's through the fd table.
//   - robust: the server is resolved by name through the name service and
//     re-resolved when it dies or times out (mk::RpcCallRobust). Handles are
//     client-local and stable across a crash: each remembers its path, flags
//     and share mode, and a handle operation the respawned server answers
//     with kInvalidArgument (it never saw our open) re-opens the file by
//     path once and retries. The file server keeps its state on the
//     simulated disk, so after restart-manager respawn plus re-open a
//     mid-workload crash is invisible to the caller.
//
// Robust-mode notes:
//   - Calls are at-least-once: a reply lost to a crash is retried, so an
//     Open may occasionally leave an orphaned open on a server that executed
//     the first attempt. Restrictive deny-modes can therefore refuse a
//     retried open; kDenyNone clients are unaffected.
//   - Re-opens strip kFsExclusive and kFsTruncate — the file already exists
//     and its contents must be preserved.
//   - Byte-range locks are not re-acquired after a restart: the respawned
//     server never saw them, and Lock/Unlock on a handle it does not know
//     answer kNotFound.
//   - When the restart manager has given up on the server (degraded mode),
//     calls return kUnavailable.
class FsClient {
 public:
  // Plain transport. `call_timeout_ns` bounds every RPC in simulated time
  // (kForever = none): a wedged server then surfaces as kTimedOut instead of
  // a hung client.
  explicit FsClient(mk::PortName service, uint64_t call_timeout_ns = mk::kForever);
  // Robust transport. `name_service` is a send right to the name service in
  // the caller's task; `fs_name` is the name the file server (and its
  // respawns) register under.
  FsClient(mk::PortName name_service, std::string fs_name,
           const mk::RobustCallOptions& opts = mk::RobustCallOptions());

  // Re-bounds every subsequent plain-transport RPC (in-flight calls keep
  // their deadline).
  void set_call_timeout_ns(uint64_t ns) { call_timeout_ns_ = ns; }

  // Turns on the client-side cache (attr + read-ahead + write-behind).
  // Default-off: until this call every operation is a straight RPC and the
  // committed bench baselines are reproduced bit-for-bit.
  void EnableCache();
  FsCache* cache() { return cache_.get(); }
  // Coherence hook for restart-manager death notices: drops the cache's
  // clean state, as a robust re-open does, without needing an Env.
  void OnServerDeath() {
    if (cache_ != nullptr) {
      cache_->BumpGeneration();
    }
  }

  base::Result<uint64_t> Open(mk::Env& env, const std::string& path, uint32_t flags = 0,
                              FsShare share = FsShare::kDenyNone);
  base::Status Close(mk::Env& env, uint64_t handle);
  base::Result<uint32_t> Read(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                              uint32_t len);
  base::Result<uint32_t> Write(mk::Env& env, uint64_t handle, uint64_t offset, const void* data,
                               uint32_t len);
  // Scatter read / gather write: up to kFsMaxExtents extents (total bytes
  // capped at kFsMaxIo) served by a single RPC. Returns total bytes moved;
  // a short count fills extents in order and stops at the first short one.
  base::Result<uint32_t> ReadV(mk::Env& env, uint64_t handle, const FsReadExtent* extents,
                               uint32_t count);
  base::Result<uint32_t> WriteV(mk::Env& env, uint64_t handle, const FsWriteExtent* extents,
                                uint32_t count);
  base::Result<FileAttr> GetAttr(mk::Env& env, const std::string& path);
  // Handle-based attributes (kFsStat): no server-side path walk, and served
  // from the attribute cache when caching is on. What fstat/SEEK_END want.
  base::Result<FileAttr> Stat(mk::Env& env, uint64_t handle);
  base::Status SetSize(mk::Env& env, uint64_t handle, uint64_t size);
  base::Status Mkdir(mk::Env& env, const std::string& path);
  base::Result<std::vector<DirEntry>> ReadDir(mk::Env& env, const std::string& path);
  base::Status Unlink(mk::Env& env, const std::string& path);
  base::Status Rename(mk::Env& env, const std::string& from, const std::string& to);
  base::Status Lock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len, bool exclusive);
  base::Status Unlock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len);
  base::Status SetEa(mk::Env& env, const std::string& path, const std::string& key,
                     const std::string& value);
  base::Result<std::string> GetEa(mk::Env& env, const std::string& path, const std::string& key);
  // Exports a memory object for the open file (server must have
  // EnableMapping); `min_len` sizes the object to at least that many bytes so
  // a mapping larger than the current file is honoured. Pending write-behind
  // for the handle is flushed first so mapped pages observe it. After a
  // server restart a robust client gets the NEW instance's object id: pass it
  // to mk::Kernel::AdoptPagerBacking to re-point a surviving mapped object at
  // the respawn, so clean pages refault against the current generation.
  base::Result<FsMapping> MapObject(mk::Env& env, uint64_t handle, uint64_t min_len = 0);
  // Drops one mapping reference; returns the references remaining server-side.
  // In robust mode an id the current instance never exported (it died with
  // the mappings) answers 0 remaining rather than an error.
  base::Result<uint32_t> UnmapObject(mk::Env& env, uint64_t object_id);
  // Publishes the handle's write-behind run to the server (no-op without the
  // cache). Mapped readers of the same file need this after cached writes.
  base::Status Flush(mk::Env& env, uint64_t handle);

 private:
  friend class FsCache;

  // What a robust handle needs to re-open its file on a respawned server.
  struct OpenState {
    std::string path;
    uint32_t flags = 0;
    FsShare share = FsShare::kDenyNone;
    uint64_t server_handle = 0;
  };

  bool robust() const { return names_.has_value(); }
  // The one call path: charges the client stub region, sends `req`'s wire
  // length (FsWireLength) over the plain or robust transport, and returns
  // the transport's failure or else the server's reply status.
  base::Status Call(mk::Env& env, const FsRequest& req, FsReply* reply,
                    mk::RpcRef* ref = nullptr);
  // Call for an operation on an open file: fills in the server's handle for
  // `handle` and, in robust mode, re-opens once on kInvalidArgument.
  base::Status CallOnHandle(mk::Env& env, uint64_t handle, FsRequest& req, FsReply* reply,
                            mk::RpcRef* ref = nullptr);
  base::Status Reopen(mk::Env& env, OpenState& state);

  // The uncached single-RPC paths FsCache misses and flushes into.
  base::Result<uint32_t> UncachedRead(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                                      uint32_t len);
  base::Result<uint32_t> UncachedWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                       const void* data, uint32_t len);
  base::Result<FileAttr> UncachedStat(mk::Env& env, uint64_t handle);

  hw::CodeRegion stub_region_;
  // Plain: the server's port. Robust: the last resolved right (kNullPort
  // until the first call, and again after the server died or timed out).
  mk::PortName port_;
  uint64_t call_timeout_ns_ = mk::kForever;
  // Robust transport: engaged by the name-service constructor.
  std::optional<mks::NameClient> names_;
  std::string fs_name_;
  mk::RobustCallOptions robust_opts_;
  std::map<uint64_t, OpenState> opens_;  // by client-local handle
  uint64_t next_local_ = 1;
  std::unique_ptr<FsCache> cache_;  // null = caching off
};

}  // namespace svc

#endif  // SRC_SVC_FS_FILE_SERVER_H_
