// A volume: one physical file system over its own BlockCache, on a block
// store its caller owns (the disk driver's RPC service, or the host's
// backdoor). A file server owns the volumes it mounts
// (FileServer::AddVolume); the monolithic comparator holds one of its own.
#ifndef SRC_SVC_FS_VOLUME_H_
#define SRC_SVC_FS_VOLUME_H_

#include <memory>

#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/pfs.h"

namespace svc {

// The physical file system a volume holds: HPFS and JFS are the two
// InodeFs flavours, FAT is FatFs.
enum class PfsKind { kHpfs, kJfs, kFat };

class Volume {
 public:
  // The file system occupies `fs_sectors` from LBA 0 of `store`, which must
  // outlive the volume; the cache holds `cache_sectors`. Touches no kernel
  // state, so a volume may be built anywhere.
  Volume(mk::Kernel& kernel, mks::BlockStore* store, PfsKind kind, uint64_t fs_sectors,
         uint32_t cache_sectors);

  Pfs& pfs() { return *pfs_; }

 private:
  BlockCache cache_;
  std::unique_ptr<Pfs> pfs_;
};

}  // namespace svc

#endif  // SRC_SVC_FS_VOLUME_H_
