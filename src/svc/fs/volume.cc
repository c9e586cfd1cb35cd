#include "src/svc/fs/volume.h"

#include "src/svc/fs/fat.h"
#include "src/svc/fs/inode_fs.h"

namespace svc {

Volume::Volume(mk::Kernel& kernel, mks::BlockStore* store, PfsKind kind, uint64_t fs_sectors,
               uint32_t cache_sectors)
    : cache_(kernel, store, cache_sectors) {
  switch (kind) {
    case PfsKind::kHpfs:
      pfs_ = std::make_unique<HpfsFs>(kernel, &cache_, fs_sectors);
      break;
    case PfsKind::kJfs:
      pfs_ = std::make_unique<JfsFs>(kernel, &cache_, fs_sectors);
      break;
    case PfsKind::kFat:
      pfs_ = std::make_unique<FatFs>(kernel, &cache_, fs_sectors);
      break;
  }
}

}  // namespace svc
