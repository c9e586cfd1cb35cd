// Physical-file-system interface: the extended vnode architecture of the
// WPOS file server. A PFS implements these operations against a block
// device; the file server mounts PFS instances into the single rooted tree
// and layers the union of the personalities' semantics on top, and the
// monolithic comparator mounts one the same way. svc::InodeFs implements it,
// in three flavours (PfsKind: FAT, HPFS and JFS).
#ifndef SRC_SVC_FS_PFS_H_
#define SRC_SVC_FS_PFS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/mk/kernel.h"

namespace svc {

using NodeId = uint64_t;

// A path's components, split at '/' with empty ones dropped: the walk of the
// file server and of the monolithic comparator.
inline std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  for (size_t start = 0; start <= path.size();) {
    const size_t slash = std::min(path.find('/', start), path.size());
    if (slash > start) {
      parts.push_back(path.substr(start, slash - start));
    }
    start = slash + 1;
  }
  return parts;
}

struct FileAttr {
  uint64_t size = 0;
  bool directory = false;
  uint64_t mtime_ns = 0;
};

struct DirEntry {
  std::string name;
  NodeId node = 0;
  bool directory = false;
};

class Pfs {
 public:
  virtual ~Pfs() = default;

  // Whether names differing only in case name different files (JFS: true;
  // FAT and HPFS: false).
  virtual bool case_sensitive() const = 0;

  // Writes a fresh, empty file system.
  virtual base::Status Format(mk::Env& env) = 0;
  virtual base::Status Mount(mk::Env& env) = 0;
  virtual base::Status Sync(mk::Env& env) = 0;

  virtual NodeId root() const = 0;
  virtual base::Result<NodeId> Lookup(mk::Env& env, NodeId dir, const std::string& name) = 0;
  virtual base::Result<NodeId> Create(mk::Env& env, NodeId dir, const std::string& name,
                                      bool directory) = 0;
  virtual base::Status Remove(mk::Env& env, NodeId dir, const std::string& name) = 0;
  virtual base::Status Rename(mk::Env& env, NodeId from_dir, const std::string& from,
                              NodeId to_dir, const std::string& to) = 0;
  virtual base::Result<uint32_t> Read(mk::Env& env, NodeId node, uint64_t offset, void* out,
                                      uint32_t len) = 0;
  virtual base::Result<uint32_t> Write(mk::Env& env, NodeId node, uint64_t offset,
                                       const void* data, uint32_t len) = 0;
  virtual base::Result<FileAttr> GetAttr(mk::Env& env, NodeId node) = 0;
  virtual base::Status SetSize(mk::Env& env, NodeId node, uint64_t size) = 0;
  virtual base::Result<std::vector<DirEntry>> ReadDir(mk::Env& env, NodeId dir) = 0;

  // Extended attributes; a PFS without them (FAT) answers kNotSupported.
  virtual base::Status SetEa(mk::Env& env, NodeId node, const std::string& key,
                             const std::string& value) = 0;
  virtual base::Result<std::string> GetEa(mk::Env& env, NodeId node, const std::string& key) = 0;
};

}  // namespace svc

#endif  // SRC_SVC_FS_PFS_H_
