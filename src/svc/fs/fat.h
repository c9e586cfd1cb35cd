// FAT physical file system: a FAT16-style on-disk format with 8.3 names.
//
// This is the compatibility-burden file system of the paper: "the old FAT
// format used by OS/2 ... supports only 8 character file names followed by a
// '.' followed by 3 character extensions. There was no good way to jam long
// file names into the OS/2 FAT file format without generating an
// incompatibility." Accordingly, Create/Lookup reject names that do not fit
// 8.3, and stored names are uppercased (not case-preserving).
#ifndef SRC_SVC_FS_FAT_H_
#define SRC_SVC_FS_FAT_H_

#include <string>
#include <vector>

#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/pfs.h"

namespace svc {

class FatFs : public Pfs {
 public:
  static constexpr uint32_t kMagic = 0x54414657;  // "WFAT"
  static constexpr uint32_t kSectorSize = 512;
  static constexpr uint32_t kSectorsPerCluster = 4;
  static constexpr uint32_t kClusterBytes = kSectorSize * kSectorsPerCluster;
  static constexpr uint32_t kRootDirSectors = 16;  // 256 entries
  static constexpr uint32_t kDirentSize = 32;
  static constexpr uint32_t kDirentsPerSector = kSectorSize / kDirentSize;
  static constexpr NodeId kRootNode = 1;
  static constexpr uint16_t kClusterFree = 0x0000;
  static constexpr uint16_t kClusterEnd = 0xffff;

  // The cache (and its block store) must outlive the file system. `sectors`
  // bounds the region of the device this file system occupies.
  FatFs(mk::Kernel& kernel, BlockCache* cache, uint64_t sectors);

  base::Status Format(mk::Env& env) override;

  bool case_sensitive() const override { return false; }

  base::Status Mount(mk::Env& env) override;
  base::Status Sync(mk::Env& env) override;
  NodeId root() const override { return kRootNode; }
  base::Result<NodeId> Lookup(mk::Env& env, NodeId dir, const std::string& name) override;
  base::Result<NodeId> Create(mk::Env& env, NodeId dir, const std::string& name,
                              bool directory) override;
  base::Status Remove(mk::Env& env, NodeId dir, const std::string& name) override;
  base::Status Rename(mk::Env& env, NodeId from_dir, const std::string& from, NodeId to_dir,
                      const std::string& to) override;
  base::Result<uint32_t> Read(mk::Env& env, NodeId node, uint64_t offset, void* out,
                              uint32_t len) override;
  base::Result<uint32_t> Write(mk::Env& env, NodeId node, uint64_t offset, const void* data,
                               uint32_t len) override;
  base::Result<FileAttr> GetAttr(mk::Env& env, NodeId node) override;
  base::Status SetSize(mk::Env& env, NodeId node, uint64_t size) override;
  base::Result<std::vector<DirEntry>> ReadDir(mk::Env& env, NodeId dir) override;

  // Converts `name` to the stored 8.3 uppercase form; fails for names that
  // do not fit the format (the long-name incompatibility).
  static base::Result<std::string> To83(const std::string& name);

  uint64_t free_clusters() const { return free_clusters_; }

 private:
  struct Dirent {
    char name[11];       // 8 + 3, space padded, uppercase
    uint8_t attr;        // 0x10 = directory, 0xe5 in name[0] = deleted
    uint8_t reserved[10];
    uint16_t first_cluster;
    uint32_t size;
    uint8_t pad[4];
  };
  static_assert(sizeof(Dirent) == kDirentSize);

  static NodeId MakeNode(uint64_t sector, uint32_t index) { return (sector << 8) | index; }
  static uint64_t NodeSector(NodeId n) { return n >> 8; }
  static uint32_t NodeIndex(NodeId n) { return static_cast<uint32_t>(n & 0xff); }

  uint64_t ClusterToSector(uint16_t cluster) const {
    return data_start_ + static_cast<uint64_t>(cluster - 2) * kSectorsPerCluster;
  }

  base::Result<uint16_t> FatGet(mk::Env& env, uint16_t cluster);
  base::Status FatSet(mk::Env& env, uint16_t cluster, uint16_t value);
  base::Result<uint16_t> AllocCluster(mk::Env& env);
  base::Status FreeChain(mk::Env& env, uint16_t first);

  base::Status ReadDirent(mk::Env& env, NodeId node, Dirent* out);
  base::Status WriteDirent(mk::Env& env, NodeId node, const Dirent& d);

  // Iterates the directory's entry slots; fn returns true to stop.
  base::Status ForEachSlot(mk::Env& env, NodeId dir,
                           const std::function<bool(NodeId, Dirent&)>& fn,
                           bool* stopped = nullptr);
  base::Result<NodeId> FindFreeSlot(mk::Env& env, NodeId dir);
  base::Result<uint16_t> DirFirstCluster(mk::Env& env, NodeId dir);

  mk::Kernel& kernel_;
  BlockCache* cache_;
  uint64_t total_sectors_;
  uint32_t fat_start_ = 1;
  uint32_t fat_sectors_ = 0;
  uint32_t root_start_ = 0;
  uint32_t data_start_ = 0;
  uint32_t num_clusters_ = 0;
  uint64_t free_clusters_ = 0;
  bool mounted_ = false;
};

}  // namespace svc

#endif  // SRC_SVC_FS_FAT_H_
