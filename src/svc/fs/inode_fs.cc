#include "src/svc/fs/inode_fs.h"

#include <cctype>
#include <cstring>

#include "src/base/log.h"

namespace svc {

namespace {
const hw::CodeRegion& LookupRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.inodefs.lookup", 170);
  return r;
}
const hw::CodeRegion& IoRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.inodefs.rw", 210);
  return r;
}
const hw::CodeRegion& JournalRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.inodefs.journal", 150);
  return r;
}

struct Superblock {
  uint32_t magic;
  uint32_t total_sectors;
  uint32_t num_inodes;
  uint32_t inode_table_start;
  uint32_t inode_table_sectors;
  uint32_t bitmap_start;
  uint32_t bitmap_sectors;
  uint32_t journal_start;
  uint32_t journal_sectors;
  uint32_t data_start;
  uint32_t num_blocks;
  uint32_t journaled;
};

// One-transaction-at-a-time journal: sector 0 of the journal region is the
// journal superblock; records follow as (header, payload) sector pairs.
struct JournalSb {
  uint32_t magic;  // 'WJRN'
  uint32_t record_count;
  uint64_t seq;
};
constexpr uint32_t kJournalMagic = 0x574a524e;

struct JournalRecHeader {
  uint32_t magic;  // 'WJRC'
  uint32_t pad;
  uint64_t lba;
};
constexpr uint32_t kJournalRecMagic = 0x574a5243;
}  // namespace

InodeFs::InodeFs(mk::Kernel& kernel, BlockCache* cache, uint64_t sectors, InodeFsConfig config)
    : kernel_(kernel), cache_(cache), total_sectors_(sectors), config_(std::move(config)) {}

bool InodeFs::NamesEqual(const std::string& a, const char* b) const {
  if (config_.case_sensitive) {
    return a == b;
  }
  size_t i = 0;
  for (; i < a.size(); ++i) {
    if (b[i] == '\0' ||
        std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return b[i] == '\0';
}

// --- Journal ----------------------------------------------------------------------

base::Status InodeFs::TxnBegin(mk::Env& env) {
  if (!config_.journaled) {
    return base::Status::kOk;
  }
  WPOS_CHECK(!in_txn_) << "nested fs transaction";
  in_txn_ = true;
  txn_.clear();
  return base::Status::kOk;
}

base::Status InodeFs::MetaWrite(mk::Env& env, uint64_t lba, const void* data) {
  if (config_.journaled && in_txn_) {
    // Stage: visible to MetaReads of this transaction via the overlay scan.
    for (auto& [staged_lba, bytes] : txn_) {
      if (staged_lba == lba) {
        std::memcpy(bytes.data(), data, kSectorSize);
        return base::Status::kOk;
      }
    }
    std::vector<uint8_t> bytes(kSectorSize);
    std::memcpy(bytes.data(), data, kSectorSize);
    txn_.emplace_back(lba, std::move(bytes));
    return base::Status::kOk;
  }
  return cache_->WriteSector(env, lba, data);
}

// Metadata read honouring the in-flight transaction overlay.
static base::Status MetaReadImpl(BlockCache* cache, mk::Env& env,
                                 const std::vector<std::pair<uint64_t, std::vector<uint8_t>>>& txn,
                                 bool in_txn, uint64_t lba, void* out) {
  if (in_txn) {
    for (auto it = txn.rbegin(); it != txn.rend(); ++it) {
      if (it->first == lba) {
        std::memcpy(out, it->second.data(), BlockCache::kSectorSize);
        return base::Status::kOk;
      }
    }
  }
  return cache->ReadSector(env, lba, out);
}

#define META_READ(env, lba, out)                                                       \
  do {                                                                                 \
    const base::Status meta_status =                                                   \
        MetaReadImpl(cache_, (env), txn_, in_txn_ && config_.journaled, (lba), (out)); \
    if (meta_status != base::Status::kOk) {                                            \
      return meta_status;                                                              \
    }                                                                                  \
  } while (0)

base::Status InodeFs::TxnCommit(mk::Env& env) {
  if (!config_.journaled) {
    return base::Status::kOk;
  }
  WPOS_CHECK(in_txn_);
  in_txn_ = false;
  if (txn_.empty()) {
    return base::Status::kOk;
  }
  kernel_.cpu().Execute(JournalRegion());
  WPOS_CHECK(1 + txn_.size() * 2 <= config_.journal_sectors) << "transaction exceeds journal";
  // 1. Write the log records.
  uint32_t sector = journal_start_ + 1;
  for (const auto& [lba, bytes] : txn_) {
    uint8_t header[kSectorSize] = {};
    JournalRecHeader rec{kJournalRecMagic, 0, lba};
    std::memcpy(header, &rec, sizeof(rec));
    base::Status st = cache_->WriteSector(env, sector++, header);
    if (st != base::Status::kOk) {
      return st;
    }
    st = cache_->WriteSector(env, sector++, bytes.data());
    if (st != base::Status::kOk) {
      return st;
    }
    ++journal_records_;
  }
  // 2. Commit record: the journal superblock with the record count.
  uint8_t sb_sector[kSectorSize] = {};
  JournalSb sb{kJournalMagic, static_cast<uint32_t>(txn_.size()), next_txn_seq_++};
  std::memcpy(sb_sector, &sb, sizeof(sb));
  base::Status st = cache_->WriteSector(env, journal_start_, sb_sector);
  if (st != base::Status::kOk) {
    return st;
  }
  st = cache_->Flush(env);  // WAL ordering: log reaches the device first
  if (st != base::Status::kOk) {
    return st;
  }
  if (crash_before_apply_) {
    // Simulated crash: the log is durable, the main area is not updated.
    txn_.clear();
    mounted_ = false;
    return base::Status::kOk;
  }
  // 3. Apply to the main area, then retire the log.
  for (const auto& [lba, bytes] : txn_) {
    st = cache_->WriteSector(env, lba, bytes.data());
    if (st != base::Status::kOk) {
      return st;
    }
  }
  txn_.clear();
  sb.record_count = 0;
  std::memset(sb_sector, 0, sizeof(sb_sector));
  std::memcpy(sb_sector, &sb, sizeof(sb));
  return cache_->WriteSector(env, journal_start_, sb_sector);
}

base::Status InodeFs::ReplayJournal(mk::Env& env) {
  uint8_t sb_sector[kSectorSize];
  base::Status st = cache_->ReadSector(env, journal_start_, sb_sector);
  if (st != base::Status::kOk) {
    return st;
  }
  JournalSb sb;
  std::memcpy(&sb, sb_sector, sizeof(sb));
  if (sb.magic != kJournalMagic || sb.record_count == 0) {
    return base::Status::kOk;  // nothing to replay
  }
  ++journal_replays_;
  kernel_.cpu().Execute(JournalRegion());
  uint32_t sector = journal_start_ + 1;
  for (uint32_t i = 0; i < sb.record_count; ++i) {
    uint8_t header[kSectorSize];
    st = cache_->ReadSector(env, sector++, header);
    if (st != base::Status::kOk) {
      return st;
    }
    JournalRecHeader rec;
    std::memcpy(&rec, header, sizeof(rec));
    if (rec.magic != kJournalRecMagic) {
      return base::Status::kCorrupt;
    }
    uint8_t payload[kSectorSize];
    st = cache_->ReadSector(env, sector++, payload);
    if (st != base::Status::kOk) {
      return st;
    }
    st = cache_->WriteSector(env, rec.lba, payload);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  sb.record_count = 0;
  std::memset(sb_sector, 0, sizeof(sb_sector));
  std::memcpy(sb_sector, &sb, sizeof(sb));
  st = cache_->WriteSector(env, journal_start_, sb_sector);
  if (st != base::Status::kOk) {
    return st;
  }
  return cache_->Flush(env);
}

// --- Format / mount --------------------------------------------------------------------

base::Status InodeFs::Format(mk::Env& env) {
  inode_table_sectors_ = (config_.num_inodes + kInodesPerSector - 1) / kInodesPerSector;
  inode_table_start_ = 1;
  bitmap_start_ = inode_table_start_ + inode_table_sectors_;
  // Provisional block count to size the bitmap.
  uint32_t data_guess = static_cast<uint32_t>(total_sectors_) - bitmap_start_;
  bitmap_sectors_ = (data_guess / 8 + kSectorSize - 1) / kSectorSize;
  journal_start_ = bitmap_start_ + bitmap_sectors_;
  const uint32_t journal = config_.journaled ? config_.journal_sectors : 0;
  data_start_ = journal_start_ + journal;
  num_blocks_ = static_cast<uint32_t>(total_sectors_) - data_start_;
  free_blocks_ = num_blocks_;

  uint8_t sector[kSectorSize] = {};
  Superblock sb{kMagic,
                static_cast<uint32_t>(total_sectors_),
                config_.num_inodes,
                inode_table_start_,
                inode_table_sectors_,
                bitmap_start_,
                bitmap_sectors_,
                journal_start_,
                journal,
                data_start_,
                num_blocks_,
                config_.journaled ? 1u : 0u};
  std::memcpy(sector, &sb, sizeof(sb));
  base::Status st = cache_->WriteSector(env, 0, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  std::memset(sector, 0, sizeof(sector));
  for (uint32_t s = inode_table_start_; s < data_start_; ++s) {
    st = cache_->WriteSector(env, s, sector);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  mounted_ = true;
  // Root directory inode.
  DiskInode root;
  root.mode = 2;
  st = WriteInode(env, kRootInode, root);
  if (st != base::Status::kOk) {
    return st;
  }
  return cache_->Flush(env);
}

base::Status InodeFs::Mount(mk::Env& env) {
  uint8_t sector[kSectorSize];
  base::Status st = cache_->ReadSector(env, 0, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  Superblock sb;
  std::memcpy(&sb, sector, sizeof(sb));
  if (sb.magic != kMagic) {
    return base::Status::kCorrupt;
  }
  inode_table_start_ = sb.inode_table_start;
  inode_table_sectors_ = sb.inode_table_sectors;
  bitmap_start_ = sb.bitmap_start;
  bitmap_sectors_ = sb.bitmap_sectors;
  journal_start_ = sb.journal_start;
  data_start_ = sb.data_start;
  num_blocks_ = sb.num_blocks;
  config_.num_inodes = sb.num_inodes;
  crash_before_apply_ = false;
  if (sb.journaled != 0) {
    st = ReplayJournal(env);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  // Count free blocks from the bitmap.
  free_blocks_ = 0;
  for (uint32_t s = 0; s < bitmap_sectors_; ++s) {
    st = cache_->ReadSector(env, bitmap_start_ + s, sector);
    if (st != base::Status::kOk) {
      return st;
    }
    for (uint32_t byte = 0; byte < kSectorSize; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        const uint32_t block = (s * kSectorSize + byte) * 8 + bit;
        if (block < num_blocks_ && (sector[byte] & (1 << bit)) == 0) {
          ++free_blocks_;
        }
      }
    }
  }
  mounted_ = true;
  return base::Status::kOk;
}

base::Status InodeFs::Sync(mk::Env& env) { return cache_->Flush(env); }

// --- Inode and block management --------------------------------------------------------

base::Status InodeFs::ReadInode(mk::Env& env, NodeId ino, DiskInode* out) {
  if (ino == 0 || ino >= config_.num_inodes) {
    return base::Status::kInvalidArgument;
  }
  const uint64_t lba = inode_table_start_ + ino / kInodesPerSector;
  uint8_t sector[kSectorSize];
  META_READ(env, lba, sector);
  std::memcpy(out, sector + (ino % kInodesPerSector) * kInodeSize, kInodeSize);
  return base::Status::kOk;
}

base::Status InodeFs::WriteInode(mk::Env& env, NodeId ino, const DiskInode& inode) {
  const uint64_t lba = inode_table_start_ + ino / kInodesPerSector;
  uint8_t sector[kSectorSize];
  META_READ(env, lba, sector);
  std::memcpy(sector + (ino % kInodesPerSector) * kInodeSize, &inode, kInodeSize);
  return MetaWrite(env, lba, sector);
}

base::Result<NodeId> InodeFs::AllocInode(mk::Env& env, uint32_t mode) {
  for (NodeId ino = 1; ino < config_.num_inodes; ++ino) {
    DiskInode inode;
    const base::Status st = ReadInode(env, ino, &inode);
    if (st != base::Status::kOk) {
      return st;
    }
    if (inode.mode == 0) {
      DiskInode fresh;
      fresh.mode = mode;
      const base::Status wst = WriteInode(env, ino, fresh);
      if (wst != base::Status::kOk) {
        return wst;
      }
      return ino;
    }
  }
  return base::Status::kNoSpace;
}

base::Status InodeFs::FreeInode(mk::Env& env, NodeId ino) {
  DiskInode empty;
  return WriteInode(env, ino, empty);
}

base::Result<uint32_t> InodeFs::AllocBlock(mk::Env& env) {
  uint8_t sector[kSectorSize];
  for (uint32_t s = 0; s < bitmap_sectors_; ++s) {
    META_READ(env, bitmap_start_ + s, sector);
    for (uint32_t byte = 0; byte < kSectorSize; ++byte) {
      if (sector[byte] == 0xff) {
        continue;
      }
      for (int bit = 0; bit < 8; ++bit) {
        const uint32_t block = (s * kSectorSize + byte) * 8 + bit;
        if (block >= num_blocks_) {
          return base::Status::kNoSpace;
        }
        if ((sector[byte] & (1 << bit)) == 0) {
          sector[byte] |= static_cast<uint8_t>(1 << bit);
          const base::Status st = MetaWrite(env, bitmap_start_ + s, sector);
          if (st != base::Status::kOk) {
            return st;
          }
          --free_blocks_;
          return block;
        }
      }
    }
  }
  return base::Status::kNoSpace;
}

base::Status InodeFs::FreeBlock(mk::Env& env, uint32_t block) {
  const uint32_t s = block / 8 / kSectorSize;
  const uint32_t byte = (block / 8) % kSectorSize;
  uint8_t sector[kSectorSize];
  META_READ(env, bitmap_start_ + s, sector);
  sector[byte] &= static_cast<uint8_t>(~(1 << (block % 8)));
  ++free_blocks_;
  return MetaWrite(env, bitmap_start_ + s, sector);
}

base::Result<uint32_t> InodeFs::MapBlock(mk::Env& env, DiskInode* inode, NodeId ino,
                                         uint32_t index, bool allocate, bool* fresh) {
  if (fresh != nullptr) {
    *fresh = false;
  }
  if (index < kDirect) {
    if (inode->direct[index] == 0) {
      if (!allocate) {
        return base::Status::kNotFound;
      }
      auto block = AllocBlock(env);
      if (!block.ok()) {
        return block.status();
      }
      inode->direct[index] = *block + 1;  // +1 so 0 means "absent"
      if (fresh != nullptr) {
        *fresh = true;
      }
      const base::Status st = WriteInode(env, ino, *inode);
      if (st != base::Status::kOk) {
        return st;
      }
    }
    return inode->direct[index] - 1;
  }
  const uint32_t ind_index = index - kDirect;
  if (ind_index >= kPtrsPerIndirect) {
    return base::Status::kTooLarge;
  }
  if (inode->indirect == 0) {
    if (!allocate) {
      return base::Status::kNotFound;
    }
    auto block = AllocBlock(env);
    if (!block.ok()) {
      return block.status();
    }
    inode->indirect = *block + 1;
    uint8_t zero[kSectorSize] = {};
    base::Status st = MetaWrite(env, data_start_ + *block, zero);
    if (st != base::Status::kOk) {
      return st;
    }
    st = WriteInode(env, ino, *inode);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  uint8_t sector[kSectorSize];
  const uint64_t ind_lba = data_start_ + inode->indirect - 1;
  META_READ(env, ind_lba, sector);
  uint32_t entry;
  std::memcpy(&entry, sector + ind_index * 4, 4);
  if (entry == 0) {
    if (!allocate) {
      return base::Status::kNotFound;
    }
    auto block = AllocBlock(env);
    if (!block.ok()) {
      return block.status();
    }
    entry = *block + 1;
    if (fresh != nullptr) {
      *fresh = true;
    }
    std::memcpy(sector + ind_index * 4, &entry, 4);
    const base::Status st = MetaWrite(env, ind_lba, sector);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return entry - 1;
}

base::Status InodeFs::FreeBlocksFrom(mk::Env& env, DiskInode* inode, uint32_t first) {
  for (uint32_t i = first; i < kDirect; ++i) {
    if (inode->direct[i] != 0) {
      const base::Status st = FreeBlock(env, inode->direct[i] - 1);
      if (st != base::Status::kOk) {
        return st;
      }
      inode->direct[i] = 0;
    }
  }
  if (inode->indirect == 0) {
    return base::Status::kOk;
  }
  const uint32_t first_ind = first > kDirect ? first - kDirect : 0;
  const uint64_t ind_lba = data_start_ + inode->indirect - 1;
  uint8_t sector[kSectorSize];
  META_READ(env, ind_lba, sector);
  bool changed = false;
  for (uint32_t i = first_ind; i < kPtrsPerIndirect; ++i) {
    uint32_t entry;
    std::memcpy(&entry, sector + i * 4, 4);
    if (entry != 0) {
      const base::Status st = FreeBlock(env, entry - 1);
      if (st != base::Status::kOk) {
        return st;
      }
      std::memset(sector + i * 4, 0, 4);
      changed = true;
    }
  }
  if (first_ind != 0) {
    // Blocks below `first` still hang off the indirect block.
    return changed ? MetaWrite(env, ind_lba, sector) : base::Status::kOk;
  }
  const base::Status st = FreeBlock(env, inode->indirect - 1);
  if (st != base::Status::kOk) {
    return st;
  }
  inode->indirect = 0;
  return base::Status::kOk;
}

// --- Directory entries -------------------------------------------------------------------

base::Result<std::pair<NodeId, uint64_t>> InodeFs::FindEntry(mk::Env& env, NodeId dir,
                                                             const std::string& name) {
  DiskInode inode;
  base::Status st = ReadInode(env, dir, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode != 2) {
    return base::Status::kInvalidArgument;
  }
  const uint64_t entries = inode.size / kDirentSize;
  for (uint64_t i = 0; i < entries; ++i) {
    const uint32_t block_index = static_cast<uint32_t>(i * kDirentSize / kSectorSize);
    auto block = MapBlock(env, &inode, dir, block_index, /*allocate=*/false);
    if (!block.ok()) {
      return block.status();
    }
    uint8_t sector[kSectorSize];
    META_READ(env, data_start_ + *block, sector);
    Dirent64 e;
    std::memcpy(&e, sector + (i * kDirentSize) % kSectorSize, kDirentSize);
    if (e.used != 0 && NamesEqual(name, e.name)) {
      return std::make_pair(static_cast<NodeId>(e.ino), i * kDirentSize);
    }
  }
  return base::Status::kNotFound;
}

base::Status InodeFs::WriteEntry(mk::Env& env, NodeId dir, uint64_t slot_offset,
                                 const Dirent64& e) {
  DiskInode inode;
  base::Status st = ReadInode(env, dir, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  const uint32_t block_index = static_cast<uint32_t>(slot_offset / kSectorSize);
  auto block = MapBlock(env, &inode, dir, block_index, /*allocate=*/true);
  if (!block.ok()) {
    return block.status();
  }
  uint8_t sector[kSectorSize];
  META_READ(env, data_start_ + *block, sector);
  std::memcpy(sector + slot_offset % kSectorSize, &e, kDirentSize);
  st = MetaWrite(env, data_start_ + *block, sector);
  if (st != base::Status::kOk) {
    return st;
  }
  if (slot_offset + kDirentSize > inode.size) {
    // Re-read: MapBlock may have updated the inode (fresh block pointers).
    st = ReadInode(env, dir, &inode);
    if (st != base::Status::kOk) {
      return st;
    }
    inode.size = slot_offset + kDirentSize;
    return WriteInode(env, dir, inode);
  }
  return base::Status::kOk;
}

// --- Pfs operations -------------------------------------------------------------------------

base::Result<NodeId> InodeFs::Lookup(mk::Env& env, NodeId dir, const std::string& name) {
  kernel_.cpu().Execute(LookupRegion());
  auto found = FindEntry(env, dir, name);
  if (!found.ok()) {
    return found.status();
  }
  return found->first;
}

base::Result<NodeId> InodeFs::Create(mk::Env& env, NodeId dir, const std::string& name,
                                     bool directory) {
  kernel_.cpu().Execute(LookupRegion());
  if (name.empty() || name.size() > kNameMax || name.find('/') != std::string::npos) {
    return base::Status::kInvalidArgument;
  }
  if (FindEntry(env, dir, name).ok()) {
    return base::Status::kAlreadyExists;
  }
  base::Status st = TxnBegin(env);
  if (st != base::Status::kOk) {
    return st;
  }
  auto ino = AllocInode(env, directory ? 2u : 1u);
  if (!ino.ok()) {
    return ino.status();
  }
  // Find a free slot (reuse unused entries).
  DiskInode dnode;
  st = ReadInode(env, dir, &dnode);
  if (st != base::Status::kOk) {
    return st;
  }
  uint64_t slot = dnode.size;
  const uint64_t entries = dnode.size / kDirentSize;
  for (uint64_t i = 0; i < entries; ++i) {
    const uint32_t block_index = static_cast<uint32_t>(i * kDirentSize / kSectorSize);
    auto block = MapBlock(env, &dnode, dir, block_index, false);
    if (!block.ok()) {
      break;
    }
    uint8_t sector[kSectorSize];
    META_READ(env, data_start_ + *block, sector);
    Dirent64 e;
    std::memcpy(&e, sector + (i * kDirentSize) % kSectorSize, kDirentSize);
    if (e.used == 0) {
      slot = i * kDirentSize;
      break;
    }
  }
  Dirent64 e;
  std::strncpy(e.name, name.c_str(), kNameMax);
  e.ino = static_cast<uint32_t>(*ino);
  e.used = 1;
  st = WriteEntry(env, dir, slot, e);
  if (st != base::Status::kOk) {
    return st;
  }
  st = TxnCommit(env);
  if (st != base::Status::kOk) {
    return st;
  }
  return *ino;
}

base::Status InodeFs::Remove(mk::Env& env, NodeId dir, const std::string& name) {
  auto found = FindEntry(env, dir, name);
  if (!found.ok()) {
    return found.status();
  }
  DiskInode inode;
  base::Status st = ReadInode(env, found->first, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode == 2) {
    // Directory: must be empty.
    const uint64_t entries = inode.size / kDirentSize;
    for (uint64_t i = 0; i < entries; ++i) {
      const uint32_t block_index = static_cast<uint32_t>(i * kDirentSize / kSectorSize);
      auto block = MapBlock(env, &inode, found->first, block_index, false);
      if (!block.ok()) {
        continue;
      }
      uint8_t sector[kSectorSize];
      META_READ(env, data_start_ + *block, sector);
      Dirent64 e;
      std::memcpy(&e, sector + (i * kDirentSize) % kSectorSize, kDirentSize);
      if (e.used != 0) {
        return base::Status::kBusy;
      }
    }
  }
  st = TxnBegin(env);
  if (st != base::Status::kOk) {
    return st;
  }
  st = FreeBlocksFrom(env, &inode, 0);
  if (st != base::Status::kOk) {
    return st;
  }
  st = FreeInode(env, found->first);
  if (st != base::Status::kOk) {
    return st;
  }
  Dirent64 empty;
  st = WriteEntry(env, dir, found->second, empty);
  if (st != base::Status::kOk) {
    return st;
  }
  return TxnCommit(env);
}

base::Status InodeFs::Rename(mk::Env& env, NodeId from_dir, const std::string& from,
                             NodeId to_dir, const std::string& to) {
  if (to.empty() || to.size() > kNameMax) {
    return base::Status::kInvalidArgument;
  }
  auto found = FindEntry(env, from_dir, from);
  if (!found.ok()) {
    return found.status();
  }
  if (FindEntry(env, to_dir, to).ok()) {
    return base::Status::kAlreadyExists;
  }
  base::Status st = TxnBegin(env);
  if (st != base::Status::kOk) {
    return st;
  }
  Dirent64 e;
  std::memset(&e, 0, sizeof(e));
  std::strncpy(e.name, to.c_str(), kNameMax);
  e.ino = static_cast<uint32_t>(found->first);
  e.used = 1;
  // Append in the destination, clear the source slot.
  DiskInode dnode;
  st = ReadInode(env, to_dir, &dnode);
  if (st != base::Status::kOk) {
    return st;
  }
  st = WriteEntry(env, to_dir, dnode.size, e);
  if (st != base::Status::kOk) {
    return st;
  }
  Dirent64 empty;
  st = WriteEntry(env, from_dir, found->second, empty);
  if (st != base::Status::kOk) {
    return st;
  }
  return TxnCommit(env);
}

base::Result<uint32_t> InodeFs::Read(mk::Env& env, NodeId node, uint64_t offset, void* out,
                                     uint32_t len) {
  kernel_.cpu().Execute(IoRegion());
  DiskInode inode;
  const base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode == 0) {
    return base::Status::kNotFound;
  }
  if (offset >= inode.size) {
    return 0u;
  }
  len = static_cast<uint32_t>(std::min<uint64_t>(len, inode.size - offset));
  uint32_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint32_t block_index = static_cast<uint32_t>(pos / kSectorSize);
    const uint32_t in_block = static_cast<uint32_t>(pos % kSectorSize);
    const uint32_t chunk = std::min(len - done, kSectorSize - in_block);
    auto block = MapBlock(env, &inode, node, block_index, /*allocate=*/false);
    if (!block.ok()) {
      // Sparse hole: zeros.
      std::memset(static_cast<uint8_t*>(out) + done, 0, chunk);
    } else {
      uint8_t sector[kSectorSize];
      const base::Status rst = cache_->ReadSector(env, data_start_ + *block, sector);
      if (rst != base::Status::kOk) {
        return rst;
      }
      std::memcpy(static_cast<uint8_t*>(out) + done, sector + in_block, chunk);
    }
    done += chunk;
  }
  return done;
}

base::Result<uint32_t> InodeFs::Write(mk::Env& env, NodeId node, uint64_t offset,
                                      const void* data, uint32_t len) {
  kernel_.cpu().Execute(IoRegion());
  DiskInode inode;
  base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode != 1) {
    return base::Status::kInvalidArgument;
  }
  st = TxnBegin(env);  // block-pointer/bitmap updates are metadata
  if (st != base::Status::kOk) {
    return st;
  }
  uint32_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint32_t block_index = static_cast<uint32_t>(pos / kSectorSize);
    const uint32_t in_block = static_cast<uint32_t>(pos % kSectorSize);
    const uint32_t chunk = std::min(len - done, kSectorSize - in_block);
    bool fresh = false;
    auto block = MapBlock(env, &inode, node, block_index, /*allocate=*/true, &fresh);
    if (!block.ok()) {
      (void)TxnCommit(env);
      return block.status();
    }
    uint8_t sector[kSectorSize] = {};
    if (chunk < kSectorSize && !fresh) {
      // Partial write into an existing block: preserve the rest. A fresh
      // block stays zeroed — reading it would resurrect a previous owner's
      // bytes.
      const base::Status rst = cache_->ReadSector(env, data_start_ + *block, sector);
      if (rst != base::Status::kOk) {
        (void)TxnCommit(env);
        return rst;
      }
    }
    std::memcpy(sector + in_block, static_cast<const uint8_t*>(data) + done, chunk);
    const base::Status wst = cache_->WriteSector(env, data_start_ + *block, sector);
    if (wst != base::Status::kOk) {
      (void)TxnCommit(env);
      return wst;
    }
    done += chunk;
  }
  // MapBlock may have rewritten the inode; reload before the size update.
  st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    (void)TxnCommit(env);
    return st;
  }
  if (offset + len > inode.size) {
    inode.size = offset + len;
    st = WriteInode(env, node, inode);
    if (st != base::Status::kOk) {
      (void)TxnCommit(env);
      return st;
    }
  }
  st = TxnCommit(env);
  if (st != base::Status::kOk) {
    return st;
  }
  return done;
}

base::Result<FileAttr> InodeFs::GetAttr(mk::Env& env, NodeId node) {
  DiskInode inode;
  const base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode == 0) {
    return base::Status::kNotFound;
  }
  return FileAttr{.size = inode.size, .directory = inode.mode == 2};
}

base::Status InodeFs::SetSize(mk::Env& env, NodeId node, uint64_t size) {
  DiskInode inode;
  base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode != 1) {
    return base::Status::kInvalidArgument;
  }
  if (size > inode.size) {
    return base::Status::kNotSupported;
  }
  st = TxnBegin(env);
  if (st != base::Status::kOk) {
    return st;
  }
  // Free every block past the new size and zero the rest of the last kept
  // one, so a later write past the new end reads back zeros in between.
  const uint32_t keep_blocks = static_cast<uint32_t>((size + kSectorSize - 1) / kSectorSize);
  st = FreeBlocksFrom(env, &inode, keep_blocks);
  if (st == base::Status::kOk && size % kSectorSize != 0) {
    auto block = MapBlock(env, &inode, node, keep_blocks - 1, /*allocate=*/false);
    if (block.ok()) {
      st = cache_->ZeroTail(env, data_start_ + *block, size % kSectorSize);
    }
  }
  if (st != base::Status::kOk) {
    (void)TxnCommit(env);
    return st;
  }
  inode.size = size;
  st = WriteInode(env, node, inode);
  if (st != base::Status::kOk) {
    (void)TxnCommit(env);
    return st;
  }
  return TxnCommit(env);
}

base::Result<std::vector<DirEntry>> InodeFs::ReadDir(mk::Env& env, NodeId dir) {
  DiskInode inode;
  base::Status st = ReadInode(env, dir, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode != 2) {
    return base::Status::kInvalidArgument;
  }
  std::vector<DirEntry> out;
  const uint64_t entries = inode.size / kDirentSize;
  for (uint64_t i = 0; i < entries; ++i) {
    const uint32_t block_index = static_cast<uint32_t>(i * kDirentSize / kSectorSize);
    auto block = MapBlock(env, &inode, dir, block_index, false);
    if (!block.ok()) {
      continue;
    }
    uint8_t sector[kSectorSize];
    META_READ(env, data_start_ + *block, sector);
    Dirent64 e;
    std::memcpy(&e, sector + (i * kDirentSize) % kSectorSize, kDirentSize);
    if (e.used != 0) {
      DiskInode child;
      const base::Status cst = ReadInode(env, e.ino, &child);
      DirEntry entry;
      entry.name = e.name;
      entry.node = e.ino;
      entry.directory = cst == base::Status::kOk && child.mode == 2;
      out.push_back(std::move(entry));
    }
  }
  return out;
}

base::Status InodeFs::SetEa(mk::Env& env, NodeId node, const std::string& key,
                            const std::string& value) {
  if (key.size() + value.size() + 2 > sizeof(DiskInode{}.ea[0])) {
    return base::Status::kTooLarge;
  }
  DiskInode inode;
  base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  st = TxnBegin(env);
  if (st != base::Status::kOk) {
    return st;
  }
  int free_slot = -1;
  int match_slot = -1;
  for (uint32_t i = 0; i < kEaSlots; ++i) {
    if (inode.ea[i][0] == '\0') {
      if (free_slot < 0) {
        free_slot = static_cast<int>(i);
      }
    } else if (key == inode.ea[i]) {
      match_slot = static_cast<int>(i);
    }
  }
  const int slot = match_slot >= 0 ? match_slot : free_slot;
  if (slot < 0) {
    (void)TxnCommit(env);
    return base::Status::kNoSpace;
  }
  std::memset(inode.ea[slot], 0, sizeof(inode.ea[slot]));
  std::memcpy(inode.ea[slot], key.c_str(), key.size());
  std::memcpy(inode.ea[slot] + key.size() + 1, value.c_str(), value.size());
  st = WriteInode(env, node, inode);
  if (st != base::Status::kOk) {
    (void)TxnCommit(env);
    return st;
  }
  return TxnCommit(env);
}

base::Result<std::string> InodeFs::GetEa(mk::Env& env, NodeId node, const std::string& key) {
  DiskInode inode;
  const base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  for (uint32_t i = 0; i < kEaSlots; ++i) {
    if (inode.ea[i][0] != '\0' && key == inode.ea[i]) {
      return std::string(inode.ea[i] + key.size() + 1);
    }
  }
  return base::Status::kNotFound;
}

}  // namespace svc
