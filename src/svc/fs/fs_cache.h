// Client-side file caching: the RPCs you never send.
//
// The paper's Table 2 prices every cross-server interaction at 3-8x a kernel
// trap, so after the zero-copy work made each RPC cheaper the next lever is
// sending fewer of them. FsCache keeps three kinds of client-side state:
//
//   - a per-handle attribute/size cache, fed by the handle-based kFsStat op
//     and primed from open replies;
//   - a block-granular read-ahead buffer — a sequential reader's next misses
//     are served from the over-fetch of the previous one;
//   - a bounded write-behind run that coalesces contiguous small writes into
//     one bulk RPC, flushed explicitly on Close/Flush (or when the bound or a
//     non-contiguous write forces it).
//
// Coherence is write-through invalidation locally (a write drops any cached
// read span it overlaps) plus generation stamping for the server side: a
// robust FsClient's re-open and restart-manager death notices call
// BumpGeneration(), which drops every piece of *clean* cached state. Dirty
// write-behind data is deliberately kept — it is the client's only copy —
// and is flushed through the (re-resolved, re-opened) transport on the next
// write/read/flush. Caching is default-off everywhere; the committed bench
// baselines are produced with caches off and stay byte-identical.
//
// The cache holds policy and state only. Misses and flushes go through the
// owning FsClient's uncached single-RPC path, over whichever transport that
// client was built with, so the same engine serves plain and robust clients
// without knowing the difference.
#ifndef SRC_SVC_FS_FS_CACHE_H_
#define SRC_SVC_FS_FS_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/mk/kernel.h"
#include "src/svc/fs/pfs.h"
#include "src/svc/fs/protocol.h"

namespace svc {

class FsClient;

class FsCache {
 public:
  // Cached I/O, byte-identical to issuing the same call sequence uncached.
  base::Result<uint32_t> Read(mk::Env& env, FsClient& client, uint64_t handle, uint64_t offset,
                              void* out, uint32_t len);
  base::Result<uint32_t> Write(mk::Env& env, FsClient& client, uint64_t handle, uint64_t offset,
                               const void* data, uint32_t len);
  base::Result<FileAttr> Stat(mk::Env& env, FsClient& client, uint64_t handle);

  // Flushes the handle's write-behind run (if any).
  base::Status FlushHandle(mk::Env& env, FsClient& client, uint64_t handle);
  // Close-time: flush, then forget everything about the handle.
  base::Status CloseHandle(mk::Env& env, FsClient& client, uint64_t handle);

  // Local write-through invalidation for side doors that change file state
  // without going through Read/Write (SetSize, ReadV/WriteV, locks...).
  void InvalidateHandle(uint64_t handle);

  // Seeds the attribute cache without an RPC (open replies carry the attr).
  void PrimeAttr(uint64_t handle, const FileAttr& attr);

  // Server-restart coherence: drops all clean cached state (attrs,
  // read-ahead) and stamps a new generation. Dirty write-behind runs are
  // kept — they still have to reach the respawned server.
  void BumpGeneration();
  uint64_t generation() const { return generation_; }

  // Observability for tests and benches (mirrored into the metric registry
  // as mk.fs.cache.{hits,misses,invalidations,writeback_bytes} once a call
  // has seen a kernel).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  uint64_t writeback_bytes() const { return writeback_bytes_; }

 private:
  struct HandleState {
    bool attr_valid = false;
    FileAttr attr;
    // Clean read-ahead span [ra_offset, ra_offset + ra_data.size()).
    uint64_t ra_offset = 0;
    std::vector<uint8_t> ra_data;
    // Sequential-read detector: the offset the next in-order read would use.
    uint64_t expected_next = 0;
    // Dirty write-behind run [wb_offset, wb_offset + wb_data.size()).
    uint64_t wb_offset = 0;
    std::vector<uint8_t> wb_data;
  };

  void Observe(mk::Env& env);  // latches the tracer for metrics/events
  void CountHit(uint64_t handle, uint64_t offset);
  void CountMiss();
  void CountInvalidate(uint64_t handle);
  base::Status Flush(mk::Env& env, FsClient& client, uint64_t handle, HandleState& s);

  std::map<uint64_t, HandleState> handles_;
  uint64_t generation_ = 0;
  mk::trace::Tracer* tracer_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t writeback_bytes_ = 0;
};

}  // namespace svc

#endif  // SRC_SVC_FS_FS_CACHE_H_
