// A volume: one physical file system over its own BlockCache, on a block
// store its caller owns (the disk driver's RPC service, or the host's
// backdoor). A file server owns the volumes it mounts
// (FileServer::AddVolume); the monolithic comparator holds one of its own.
#ifndef SRC_SVC_FS_VOLUME_H_
#define SRC_SVC_FS_VOLUME_H_

#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/inode_fs.h"

namespace svc {

class Volume {
 public:
  // The file system occupies `fs_sectors` from LBA 0 of `store`, which must
  // outlive the volume; the cache holds `cache_sectors`. Touches no kernel
  // state, so a volume may be built anywhere.
  Volume(mk::Kernel& kernel, mks::BlockStore* store, PfsKind kind, uint64_t fs_sectors,
         uint32_t cache_sectors)
      : cache_(kernel, store, cache_sectors), pfs_(kernel, &cache_, fs_sectors, kind) {}

  InodeFs& pfs() { return pfs_; }

 private:
  BlockCache cache_;
  InodeFs pfs_;
};

}  // namespace svc

#endif  // SRC_SVC_FS_VOLUME_H_
