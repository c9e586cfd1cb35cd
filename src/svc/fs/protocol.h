// File server wire protocol.
#ifndef SRC_SVC_FS_PROTOCOL_H_
#define SRC_SVC_FS_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace svc {

inline constexpr uint32_t kFsMaxPath = 160;
// Per-request byte limit. Payloads at or above the kernel's OOL threshold
// (mk::Costs::kRpcOolThresholdBytes) move as page references instead of the
// per-byte copy loop, so the cap is sized for bulk I/O rather than for what
// a copy loop can stomach.
inline constexpr uint32_t kFsMaxIo = 128 * 1024;
// Scatter/gather: one kReadV/kWriteV request carries up to this many
// extents, amortizing one RPC's trap cost across all of them.
inline constexpr uint32_t kFsMaxExtents = 16;

enum class FsOp : uint32_t {
  kOpen = 1,
  kClose,
  kRead,
  kWrite,
  kGetAttr,
  kSetSize,
  kMkdir,
  kReadDir,
  kUnlink,
  kRename,
  kLock,
  kUnlock,
  kSetEa,
  kGetEa,
  kSync,
  kReadV,   // multi-extent read; extents travel in the ref data
  kWriteV,  // multi-extent write; ref data = extents then payload
  kFsStat,  // handle-based attributes; no path walk, feeds the client cache
  kMapObject,   // export a memory object for the open file in `handle`; `len`
                // is the minimum object size wanted. reply.handle = kernel
                // object id, reply.attr = current attributes. Requires
                // FileServer::EnableMapping; kNotSupported otherwise.
  kMapRelease,  // drop one mapping reference of object id `handle`;
                // reply.len = references remaining
};

// One extent of a kReadV/kWriteV request. The extent table travels at the
// front of the request's by-reference data: for kReadV the ref carries just
// the table (data comes back in the reply ref); for kWriteV the payload
// bytes for all extents follow the table back to back.
struct FsExtent {
  uint64_t offset = 0;
  uint32_t len = 0;
  uint32_t pad = 0;
};

// Open flags: the union of what the personalities need (OS/2 delete-on-close
// and deny-mode sharing, UNIX append/truncate/exclusive, TalOS-style
// case-insensitive opens on case-sensitive stores).
enum FsOpenFlags : uint32_t {
  kFsCreate = 1u << 0,
  kFsExclusive = 1u << 1,
  kFsTruncate = 1u << 2,
  kFsDeleteOnClose = 1u << 3,  // OS/2 semantics
  kFsAppend = 1u << 4,         // UNIX semantics
  kFsCaseInsensitive = 1u << 5,
  kFsWrite = 1u << 6,
};

// OS/2 DosOpen-style sharing modes.
enum class FsShare : uint32_t {
  kDenyNone = 0,
  kDenyWrite = 1,
  kDenyAll = 2,
};

struct FsRequest {
  FsOp op = FsOp::kOpen;
  uint32_t flags = 0;
  FsShare share = FsShare::kDenyNone;
  uint64_t handle = 0;
  uint64_t offset = 0;
  uint32_t len = 0;
  uint32_t lock_exclusive = 0;
  uint32_t extent_count = 0;  // kReadV/kWriteV: extents at the ref data front
  uint32_t pad = 0;
  char path[kFsMaxPath] = {};
  char path2[kFsMaxPath] = {};  // rename target; EA key

  void SetPath(const char* p) {
    std::strncpy(path, p, kFsMaxPath - 1);
    path[kFsMaxPath - 1] = '\0';
  }
  void SetPath2(const char* p) {
    std::strncpy(path2, p, kFsMaxPath - 1);
    path2[kFsMaxPath - 1] = '\0';
  }
};

// --- Wire length ---------------------------------------------------------
//
// A request travels as a prefix of FsRequest: the fixed part, then every
// field up to the end of the last string its op reads, as a MIG interface
// gives each routine its own layout. A handle op (close, read, write, lock,
// stat, ...) sends the fixed part alone, a path op sends `path` through its
// NUL, and rename and the EA ops send `path` whole and `path2` through its
// last NUL. The server receives into a zero-filled FsRequest, so the bytes
// a client did not send read as zero.
inline constexpr uint32_t kFsFixedBytes = offsetof(FsRequest, path);

// Bytes that `count` back-to-back NUL-terminated strings take at the front
// of a kFsMaxPath-byte field, or 0 when they do not all end inside it.
inline uint32_t FsFieldBytes(const char* field, uint32_t count) {
  uint32_t used = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const void* nul =
        used < kFsMaxPath ? std::memchr(field + used, '\0', kFsMaxPath - used) : nullptr;
    if (nul == nullptr) {
      return 0;
    }
    used = static_cast<uint32_t>(static_cast<const char*>(nul) - field) + 1;
  }
  return used;
}

// The bytes of `r` that go on the wire, or 0 when a string its op reads
// does not end inside its field. FsClient sends exactly this many; the
// server answers kInvalidArgument to a request whose wire length is 0 or
// longer than what it received, since a cut string would otherwise read as
// its own prefix.
inline uint32_t FsWireLength(const FsRequest& r) {
  uint32_t path2_strings = 0;
  switch (r.op) {
    case FsOp::kClose:
    case FsOp::kRead:
    case FsOp::kWrite:
    case FsOp::kSetSize:
    case FsOp::kLock:
    case FsOp::kUnlock:
    case FsOp::kReadV:
    case FsOp::kWriteV:
    case FsOp::kFsStat:
    case FsOp::kMapObject:
    case FsOp::kMapRelease:
      return kFsFixedBytes;
    case FsOp::kRename:
    case FsOp::kGetEa:
      path2_strings = 1;
      break;
    case FsOp::kSetEa:
      path2_strings = 2;  // "key\0value\0"
      break;
    default:
      // kOpen and the path ops. An op the server does not know goes to its
      // path-op handler too, which resolves `path` first.
      break;
  }
  const uint32_t path_bytes = FsFieldBytes(r.path, 1);
  if (path_bytes == 0) {
    return 0;
  }
  if (path2_strings == 0) {
    return kFsFixedBytes + path_bytes;
  }
  const uint32_t path2_bytes = FsFieldBytes(r.path2, path2_strings);
  return path2_bytes == 0 ? 0 : static_cast<uint32_t>(offsetof(FsRequest, path2) + path2_bytes);
}

struct FsAttrWire {
  uint64_t size = 0;
  uint8_t directory = 0;
};

struct FsReply {
  int32_t status = 0;
  uint64_t handle = 0;
  uint32_t len = 0;  // bytes read/written, or entry count for kReadDir
  FsAttrWire attr;
};

// kReadDir bulk reply entry.
struct FsDirEntryWire {
  char name[56] = {};
  uint8_t directory = 0;
  uint8_t pad[7] = {};
};

}  // namespace svc

#endif  // SRC_SVC_FS_PROTOCOL_H_
