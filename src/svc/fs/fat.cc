#include "src/svc/fs/fat.h"

#include <cctype>
#include <cstring>
#include <functional>

#include "src/base/log.h"

namespace svc {

namespace {
const hw::CodeRegion& PathRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fat.lookup", 160);
  return r;
}
const hw::CodeRegion& IoRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fat.rw", 200);
  return r;
}
const hw::CodeRegion& AllocRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fat.alloc", 120);
  return r;
}

struct BootSector {
  uint32_t magic;
  uint32_t total_sectors;
  uint32_t fat_start;
  uint32_t fat_sectors;
  uint32_t root_start;
  uint32_t data_start;
  uint32_t num_clusters;
};
}  // namespace

FatFs::FatFs(mk::Kernel& kernel, BlockCache* cache, uint64_t sectors)
    : kernel_(kernel), cache_(cache), total_sectors_(sectors) {}

base::Result<std::string> FatFs::To83(const std::string& name) {
  if (name.empty() || name == "." || name == "..") {
    return base::Status::kInvalidArgument;
  }
  std::string stem;
  std::string ext;
  const size_t dot = name.rfind('.');
  if (dot == std::string::npos) {
    stem = name;
  } else {
    stem = name.substr(0, dot);
    ext = name.substr(dot + 1);
  }
  // The long-name incompatibility: anything beyond 8.3 cannot be stored.
  if (stem.empty() || stem.size() > 8 || ext.size() > 3) {
    return base::Status::kNotSupported;
  }
  std::string out(11, ' ');
  for (size_t i = 0; i < stem.size(); ++i) {
    const char c = stem[i];
    if (c == '/' || c == '.' || c == ' ') {
      return base::Status::kInvalidArgument;
    }
    out[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  for (size_t i = 0; i < ext.size(); ++i) {
    const char c = ext[i];
    if (c == '/' || c == '.' || c == ' ') {
      return base::Status::kInvalidArgument;
    }
    out[8 + i] = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

base::Status FatFs::Format(mk::Env& env) {
  // Geometry: FAT16 entries, 2 bytes each; clusters cover the data area.
  const uint64_t overhead_guess = 1 + kRootDirSectors;
  const uint64_t data_sectors = total_sectors_ - overhead_guess;
  num_clusters_ = static_cast<uint32_t>(data_sectors / kSectorsPerCluster);
  fat_sectors_ = (num_clusters_ * 2 + kSectorSize - 1) / kSectorSize;
  root_start_ = fat_start_ + fat_sectors_;
  data_start_ = root_start_ + kRootDirSectors;
  num_clusters_ = static_cast<uint32_t>((total_sectors_ - data_start_) / kSectorsPerCluster);
  free_clusters_ = num_clusters_;

  BootSector boot{kMagic, static_cast<uint32_t>(total_sectors_), fat_start_, fat_sectors_,
                  root_start_, data_start_, num_clusters_};
  uint8_t sector[kSectorSize] = {};
  std::memcpy(sector, &boot, sizeof(boot));
  base::Status st = cache_->WriteSector(env, 0, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  std::memset(sector, 0, sizeof(sector));
  for (uint32_t s = 0; s < fat_sectors_ + kRootDirSectors; ++s) {
    st = cache_->WriteSector(env, fat_start_ + s, sector);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  mounted_ = true;
  return cache_->Flush(env);
}

base::Status FatFs::Mount(mk::Env& env) {
  uint8_t sector[kSectorSize];
  const base::Status st = cache_->ReadSector(env, 0, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  BootSector boot;
  std::memcpy(&boot, sector, sizeof(boot));
  if (boot.magic != kMagic) {
    return base::Status::kCorrupt;
  }
  fat_start_ = boot.fat_start;
  fat_sectors_ = boot.fat_sectors;
  root_start_ = boot.root_start;
  data_start_ = boot.data_start;
  num_clusters_ = boot.num_clusters;
  // Count free clusters.
  free_clusters_ = 0;
  for (uint16_t c = 2; c < num_clusters_ + 2; ++c) {
    auto v = FatGet(env, c);
    if (!v.ok()) {
      return v.status();
    }
    if (*v == kClusterFree) {
      ++free_clusters_;
    }
  }
  mounted_ = true;
  return base::Status::kOk;
}

base::Status FatFs::Sync(mk::Env& env) { return cache_->Flush(env); }

base::Result<uint16_t> FatFs::FatGet(mk::Env& env, uint16_t cluster) {
  const uint64_t lba = fat_start_ + (static_cast<uint64_t>(cluster) * 2) / kSectorSize;
  uint8_t sector[kSectorSize];
  const base::Status st = cache_->ReadSector(env, lba, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  uint16_t value;
  std::memcpy(&value, sector + (cluster * 2) % kSectorSize, 2);
  return value;
}

base::Status FatFs::FatSet(mk::Env& env, uint16_t cluster, uint16_t value) {
  const uint64_t lba = fat_start_ + (static_cast<uint64_t>(cluster) * 2) / kSectorSize;
  uint8_t sector[kSectorSize];
  base::Status st = cache_->ReadSector(env, lba, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  std::memcpy(sector + (cluster * 2) % kSectorSize, &value, 2);
  return cache_->WriteSector(env, lba, sector);
}

base::Result<uint16_t> FatFs::AllocCluster(mk::Env& env) {
  kernel_.cpu().Execute(AllocRegion());
  for (uint16_t c = 2; c < num_clusters_ + 2; ++c) {
    auto v = FatGet(env, c);
    if (!v.ok()) {
      return v.status();
    }
    if (*v == kClusterFree) {
      const base::Status st = FatSet(env, c, kClusterEnd);
      if (st != base::Status::kOk) {
        return st;
      }
      --free_clusters_;
      // Zero the fresh cluster.
      uint8_t zero[kSectorSize] = {};
      for (uint32_t s = 0; s < kSectorsPerCluster; ++s) {
        (void)cache_->WriteSector(env, ClusterToSector(c) + s, zero);
      }
      return c;
    }
  }
  return base::Status::kNoSpace;
}

base::Status FatFs::FreeChain(mk::Env& env, uint16_t first) {
  uint16_t c = first;
  while (c != kClusterFree && c != kClusterEnd) {
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    const base::Status st = FatSet(env, c, kClusterFree);
    if (st != base::Status::kOk) {
      return st;
    }
    ++free_clusters_;
    c = *next;
  }
  return base::Status::kOk;
}

base::Status FatFs::ReadDirent(mk::Env& env, NodeId node, Dirent* out) {
  if (node == kRootNode) {
    // The root has no dirent: node 1's slot is bytes 32-63 of the boot
    // sector. So a read, write or truncate through the root is refused.
    return base::Status::kInvalidArgument;
  }
  uint8_t sector[kSectorSize];
  const base::Status st = cache_->ReadSector(env, NodeSector(node), sector);
  if (st != base::Status::kOk) {
    return st;
  }
  std::memcpy(out, sector + NodeIndex(node) * kDirentSize, kDirentSize);
  return base::Status::kOk;
}

base::Status FatFs::WriteDirent(mk::Env& env, NodeId node, const Dirent& d) {
  uint8_t sector[kSectorSize];
  base::Status st = cache_->ReadSector(env, NodeSector(node), sector);
  if (st != base::Status::kOk) {
    return st;
  }
  std::memcpy(sector + NodeIndex(node) * kDirentSize, &d, kDirentSize);
  return cache_->WriteSector(env, NodeSector(node), sector);
}

base::Result<uint16_t> FatFs::DirFirstCluster(mk::Env& env, NodeId dir) {
  if (dir == kRootNode) {
    return base::Status::kInvalidArgument;  // root is not cluster-chained
  }
  Dirent d;
  const base::Status st = ReadDirent(env, dir, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  if ((d.attr & 0x10) == 0) {
    return base::Status::kInvalidArgument;
  }
  return d.first_cluster;
}

base::Status FatFs::ForEachSlot(mk::Env& env, NodeId dir,
                                const std::function<bool(NodeId, Dirent&)>& fn, bool* stopped) {
  if (stopped != nullptr) {
    *stopped = false;
  }
  auto visit_sector = [&](uint64_t lba) -> base::Result<bool> {
    uint8_t sector[kSectorSize];
    const base::Status st = cache_->ReadSector(env, lba, sector);
    if (st != base::Status::kOk) {
      return st;
    }
    for (uint32_t i = 0; i < kDirentsPerSector; ++i) {
      Dirent d;
      std::memcpy(&d, sector + i * kDirentSize, kDirentSize);
      if (fn(MakeNode(lba, i), d)) {
        return true;
      }
    }
    return false;
  };
  if (dir == kRootNode) {
    for (uint32_t s = 0; s < kRootDirSectors; ++s) {
      auto stop = visit_sector(root_start_ + s);
      if (!stop.ok()) {
        return stop.status();
      }
      if (*stop) {
        if (stopped != nullptr) {
          *stopped = true;
        }
        return base::Status::kOk;
      }
    }
    return base::Status::kOk;
  }
  auto first = DirFirstCluster(env, dir);
  if (!first.ok()) {
    return first.status();
  }
  uint16_t c = *first;
  while (c != kClusterFree && c != kClusterEnd) {
    for (uint32_t s = 0; s < kSectorsPerCluster; ++s) {
      auto stop = visit_sector(ClusterToSector(c) + s);
      if (!stop.ok()) {
        return stop.status();
      }
      if (*stop) {
        if (stopped != nullptr) {
          *stopped = true;
        }
        return base::Status::kOk;
      }
    }
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    c = *next;
  }
  return base::Status::kOk;
}

base::Result<NodeId> FatFs::Lookup(mk::Env& env, NodeId dir, const std::string& name) {
  kernel_.cpu().Execute(PathRegion());
  auto stored = To83(name);
  if (!stored.ok()) {
    return stored.status();
  }
  NodeId found = 0;
  bool stopped = false;
  const base::Status st = ForEachSlot(
      env, dir,
      [&](NodeId node, Dirent& d) {
        if (d.name[0] == '\0' || static_cast<uint8_t>(d.name[0]) == 0xe5) {
          return false;
        }
        if (std::memcmp(d.name, stored->data(), 11) == 0) {
          found = node;
          return true;
        }
        return false;
      },
      &stopped);
  if (st != base::Status::kOk) {
    return st;
  }
  if (!stopped) {
    return base::Status::kNotFound;
  }
  return found;
}

base::Result<NodeId> FatFs::FindFreeSlot(mk::Env& env, NodeId dir) {
  NodeId slot = 0;
  bool stopped = false;
  base::Status st = ForEachSlot(
      env, dir,
      [&](NodeId node, Dirent& d) {
        if (d.name[0] == '\0' || static_cast<uint8_t>(d.name[0]) == 0xe5) {
          slot = node;
          return true;
        }
        return false;
      },
      &stopped);
  if (st != base::Status::kOk) {
    return st;
  }
  if (stopped) {
    return slot;
  }
  if (dir == kRootNode) {
    return base::Status::kNoSpace;  // fixed-size root directory is full
  }
  // Extend the subdirectory with one more cluster.
  auto first = DirFirstCluster(env, dir);
  if (!first.ok()) {
    return first.status();
  }
  uint16_t c = *first;
  while (true) {
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    if (*next == kClusterEnd) {
      break;
    }
    c = *next;
  }
  auto fresh = AllocCluster(env);
  if (!fresh.ok()) {
    return fresh.status();
  }
  st = FatSet(env, c, *fresh);
  if (st != base::Status::kOk) {
    return st;
  }
  return MakeNode(ClusterToSector(*fresh), 0);
}

base::Result<NodeId> FatFs::Create(mk::Env& env, NodeId dir, const std::string& name,
                                   bool directory) {
  kernel_.cpu().Execute(PathRegion());
  auto stored = To83(name);
  if (!stored.ok()) {
    return stored.status();
  }
  auto existing = Lookup(env, dir, name);
  if (existing.ok()) {
    return base::Status::kAlreadyExists;
  }
  auto slot = FindFreeSlot(env, dir);
  if (!slot.ok()) {
    return slot.status();
  }
  Dirent d;
  std::memset(&d, 0, sizeof(d));
  std::memcpy(d.name, stored->data(), 11);
  d.attr = directory ? 0x10 : 0x00;
  if (directory) {
    auto cluster = AllocCluster(env);
    if (!cluster.ok()) {
      return cluster.status();
    }
    d.first_cluster = *cluster;
  }
  const base::Status st = WriteDirent(env, *slot, d);
  if (st != base::Status::kOk) {
    return st;
  }
  return *slot;
}

base::Status FatFs::Remove(mk::Env& env, NodeId dir, const std::string& name) {
  auto node = Lookup(env, dir, name);
  if (!node.ok()) {
    return node.status();
  }
  Dirent d;
  base::Status st = ReadDirent(env, *node, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  if ((d.attr & 0x10) != 0) {
    // Directory must be empty.
    bool has_children = false;
    st = ForEachSlot(env, *node, [&](NodeId, Dirent& e) {
      if (e.name[0] != '\0' && static_cast<uint8_t>(e.name[0]) != 0xe5) {
        has_children = true;
        return true;
      }
      return false;
    });
    if (st != base::Status::kOk) {
      return st;
    }
    if (has_children) {
      return base::Status::kBusy;
    }
  }
  if (d.first_cluster != 0) {
    st = FreeChain(env, d.first_cluster);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  d.name[0] = static_cast<char>(0xe5);
  return WriteDirent(env, *node, d);
}

base::Status FatFs::Rename(mk::Env& env, NodeId from_dir, const std::string& from, NodeId to_dir,
                           const std::string& to) {
  auto stored = To83(to);
  if (!stored.ok()) {
    return stored.status();
  }
  auto node = Lookup(env, from_dir, from);
  if (!node.ok()) {
    return node.status();
  }
  if (Lookup(env, to_dir, to).ok()) {
    return base::Status::kAlreadyExists;
  }
  Dirent d;
  base::Status st = ReadDirent(env, *node, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  auto slot = FindFreeSlot(env, to_dir);
  if (!slot.ok()) {
    return slot.status();
  }
  Dirent moved = d;
  std::memcpy(moved.name, stored->data(), 11);
  st = WriteDirent(env, *slot, moved);
  if (st != base::Status::kOk) {
    return st;
  }
  d.name[0] = static_cast<char>(0xe5);
  return WriteDirent(env, *node, d);
}

base::Result<uint32_t> FatFs::Read(mk::Env& env, NodeId node, uint64_t offset, void* out,
                                   uint32_t len) {
  kernel_.cpu().Execute(IoRegion());
  Dirent d;
  const base::Status st = ReadDirent(env, node, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  if ((d.attr & 0x10) != 0) {
    return base::Status::kInvalidArgument;  // a directory holds no file data
  }
  if (offset >= d.size) {
    return 0u;
  }
  len = static_cast<uint32_t>(std::min<uint64_t>(len, d.size - offset));
  uint32_t done = 0;
  // Walk to the starting cluster.
  uint16_t c = d.first_cluster;
  uint64_t skip = offset / kClusterBytes;
  while (skip-- > 0 && c != kClusterEnd && c != kClusterFree) {
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    c = *next;
  }
  uint64_t in_cluster = offset % kClusterBytes;
  uint8_t sector[kSectorSize];
  while (done < len && c != kClusterEnd && c != kClusterFree) {
    const uint64_t lba = ClusterToSector(c) + in_cluster / kSectorSize;
    const uint32_t in_sector = static_cast<uint32_t>(in_cluster % kSectorSize);
    const uint32_t chunk = std::min(len - done, kSectorSize - in_sector);
    const base::Status rst = cache_->ReadSector(env, lba, sector);
    if (rst != base::Status::kOk) {
      return rst;
    }
    std::memcpy(static_cast<uint8_t*>(out) + done, sector + in_sector, chunk);
    done += chunk;
    in_cluster += chunk;
    if (in_cluster >= kClusterBytes) {
      in_cluster = 0;
      auto next = FatGet(env, c);
      if (!next.ok()) {
        return next.status();
      }
      c = *next;
    }
  }
  return done;
}

base::Result<uint32_t> FatFs::Write(mk::Env& env, NodeId node, uint64_t offset, const void* data,
                                    uint32_t len) {
  kernel_.cpu().Execute(IoRegion());
  Dirent d;
  base::Status st = ReadDirent(env, node, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  if ((d.attr & 0x10) != 0) {
    return base::Status::kInvalidArgument;
  }
  // The extent must fit the 32-bit size field and then the data area, checked
  // so that it cannot wrap, before a cluster is taken or a byte is written.
  if (offset > UINT32_MAX || len > UINT32_MAX - offset) {
    return base::Status::kTooLarge;
  }
  // Ensure the chain covers [0, offset+len).
  const uint64_t needed_clusters = (offset + len + kClusterBytes - 1) / kClusterBytes;
  if (needed_clusters > num_clusters_) {
    return base::Status::kNoSpace;
  }
  uint16_t c = d.first_cluster;
  uint16_t last = 0;
  uint64_t have = 0;
  while (c != kClusterFree && c != kClusterEnd) {
    ++have;
    last = c;
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    c = *next;
  }
  // A write that cannot extend the chain gives back the clusters it took.
  const uint16_t tail = last;
  uint16_t first_fresh = 0;
  while (have < needed_clusters) {
    auto fresh = AllocCluster(env);
    st = fresh.ok() && last != 0 ? FatSet(env, last, *fresh) : fresh.status();
    if (st != base::Status::kOk) {
      if (fresh.ok()) {
        (void)FreeChain(env, *fresh);
      }
      if (first_fresh != 0) {
        (void)FreeChain(env, first_fresh);
        if (tail != 0) {
          (void)FatSet(env, tail, kClusterEnd);
        }
      }
      return st;
    }
    if (last == 0) {
      d.first_cluster = *fresh;
    }
    if (first_fresh == 0) {
      first_fresh = *fresh;
    }
    last = *fresh;
    ++have;
  }
  // Write the data.
  uint32_t done = 0;
  c = d.first_cluster;
  uint64_t skip = offset / kClusterBytes;
  while (skip-- > 0) {
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    c = *next;
  }
  uint64_t in_cluster = offset % kClusterBytes;
  uint8_t sector[kSectorSize];
  while (done < len) {
    const uint64_t lba = ClusterToSector(c) + in_cluster / kSectorSize;
    const uint32_t in_sector = static_cast<uint32_t>(in_cluster % kSectorSize);
    const uint32_t chunk = std::min(len - done, kSectorSize - in_sector);
    if (chunk < kSectorSize) {
      st = cache_->ReadSector(env, lba, sector);
      if (st != base::Status::kOk) {
        return st;
      }
    }
    std::memcpy(sector + in_sector, static_cast<const uint8_t*>(data) + done, chunk);
    st = cache_->WriteSector(env, lba, sector);
    if (st != base::Status::kOk) {
      return st;
    }
    done += chunk;
    in_cluster += chunk;
    if (in_cluster >= kClusterBytes && done < len) {
      in_cluster = 0;
      auto next = FatGet(env, c);
      if (!next.ok()) {
        return next.status();
      }
      c = *next;
    }
  }
  if (offset + len > d.size) {
    d.size = static_cast<uint32_t>(offset + len);
    st = WriteDirent(env, node, d);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return done;
}

base::Result<FileAttr> FatFs::GetAttr(mk::Env& env, NodeId node) {
  if (node == kRootNode) {
    return FileAttr{.size = 0, .directory = true};
  }
  Dirent d;
  const base::Status st = ReadDirent(env, node, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  return FileAttr{.size = d.size, .directory = (d.attr & 0x10) != 0};
}

base::Status FatFs::SetSize(mk::Env& env, NodeId node, uint64_t size) {
  Dirent d;
  base::Status st = ReadDirent(env, node, &d);
  if (st != base::Status::kOk) {
    return st;
  }
  if ((d.attr & 0x10) != 0) {
    return base::Status::kInvalidArgument;  // a directory's clusters hold its entries
  }
  if (size > d.size) {
    return base::Status::kNotSupported;  // growth happens through Write
  }
  // Free clusters beyond the new size.
  const uint64_t keep = (size + kClusterBytes - 1) / kClusterBytes;
  uint16_t c = d.first_cluster;
  uint16_t prev = 0;
  for (uint64_t i = 0; i < keep && c != kClusterEnd && c != kClusterFree; ++i) {
    prev = c;
    auto next = FatGet(env, c);
    if (!next.ok()) {
      return next.status();
    }
    c = *next;
  }
  if (c != kClusterEnd && c != kClusterFree) {
    st = FreeChain(env, c);
    if (st != base::Status::kOk) {
      return st;
    }
    if (prev == 0) {
      d.first_cluster = 0;
    } else {
      st = FatSet(env, prev, kClusterEnd);
      if (st != base::Status::kOk) {
        return st;
      }
    }
  }
  // Zero the rest of the last kept cluster, sector by sector.
  const uint32_t tail = static_cast<uint32_t>(size % kClusterBytes);
  for (uint32_t off = tail; prev != 0 && tail != 0 && off < kClusterBytes;
       off += kSectorSize - off % kSectorSize) {
    st = cache_->ZeroTail(env, ClusterToSector(prev) + off / kSectorSize, off % kSectorSize);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  d.size = static_cast<uint32_t>(size);
  return WriteDirent(env, node, d);
}

base::Result<std::vector<DirEntry>> FatFs::ReadDir(mk::Env& env, NodeId dir) {
  std::vector<DirEntry> out;
  const base::Status st = ForEachSlot(env, dir, [&](NodeId node, Dirent& d) {
    if (d.name[0] == '\0' || static_cast<uint8_t>(d.name[0]) == 0xe5) {
      return false;
    }
    std::string stem(d.name, 8);
    std::string ext(d.name + 8, 3);
    while (!stem.empty() && stem.back() == ' ') {
      stem.pop_back();
    }
    while (!ext.empty() && ext.back() == ' ') {
      ext.pop_back();
    }
    DirEntry e;
    e.name = ext.empty() ? stem : stem + "." + ext;
    e.node = node;
    e.directory = (d.attr & 0x10) != 0;
    out.push_back(std::move(e));
    return false;
  });
  if (st != base::Status::kOk) {
    return st;
  }
  return out;
}

}  // namespace svc
