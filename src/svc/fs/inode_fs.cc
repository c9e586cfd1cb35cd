#include "src/svc/fs/inode_fs.h"

#include <algorithm>
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

InodeFs::InodeFs(mk::Kernel& kernel, BlockCache* cache, uint64_t sectors, PfsKind kind)
    : kernel_(kernel), cache_(cache), total_sectors_(sectors), kind_(kind) {}

bool InodeFs::NamesEqual(const std::string& a, const char* b) const {
  if (case_sensitive()) {
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

base::Result<std::string> InodeFs::StoredName(const std::string& name) const {
  if (name.empty() || name.size() > kNameMax || name.find('/') != std::string::npos ||
      name == "." || name == "..") {
    return base::Status::kInvalidArgument;
  }
  if (kind_ != PfsKind::kFat) {
    return name;
  }
  const size_t dot = name.rfind('.');
  const std::string stem = name.substr(0, dot);
  const std::string ext = dot == std::string::npos ? "" : name.substr(dot + 1);
  // The long-name incompatibility: anything beyond 8.3 cannot be stored.
  if (stem.empty() || stem.size() > 8 || ext.size() > 3) {
    return base::Status::kNotSupported;
  }
  if (name.find(' ') != std::string::npos || stem.find('.') != std::string::npos) {
    return base::Status::kInvalidArgument;
  }
  std::string stored = ext.empty() ? stem : name;  // "a." is stored as "A"
  for (char& c : stored) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return stored;
}

// --- Journal ----------------------------------------------------------------------

InodeFs::Txn::Txn(InodeFs& fs) : fs_(fs) {
  if (!fs_.journaled()) {
    return;
  }
  WPOS_CHECK(!fs_.in_txn_) << "nested fs transaction";
  fs_.in_txn_ = true;
  fs_.txn_.clear();
  fs_.txn_free_blocks_ = fs_.free_blocks_;
}

InodeFs::Txn::~Txn() {
  if (!fs_.in_txn_) {
    return;  // committed, or no journal
  }
  fs_.in_txn_ = false;
  fs_.txn_.clear();
  fs_.free_blocks_ = fs_.txn_free_blocks_;
}

base::Status InodeFs::MetaRead(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len,
                               void* out) {
  if (in_txn_) {
    for (const auto& [staged_lba, bytes] : txn_) {
      if (staged_lba == lba) {
        std::memcpy(out, bytes.data() + offset, len);
        return base::Status::kOk;
      }
    }
  }
  return cache_->ReadBytes(env, lba, offset, len, out);
}

base::Status InodeFs::MetaWrite(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len,
                                const void* data) {
  if (!in_txn_) {
    return cache_->WriteBytes(env, lba, offset, len, data);
  }
  // Stage the whole sector: visible to this transaction's MetaReads, and
  // logged whole at commit.
  auto it = std::find_if(txn_.begin(), txn_.end(),
                         [lba](const auto& staged) { return staged.first == lba; });
  if (it == txn_.end()) {
    std::vector<uint8_t> bytes(kSectorSize);
    if (len != kSectorSize) {
      const base::Status st = cache_->ReadSector(env, lba, bytes.data());
      if (st != base::Status::kOk) {
        return st;
      }
    }
    it = txn_.emplace(txn_.end(), lba, std::move(bytes));
  }
  std::memcpy(it->second.data() + offset, data, len);
  return base::Status::kOk;
}

#define META_READ(env, lba, offset, len, out)                                        \
  do {                                                                               \
    const base::Status meta_status = MetaRead((env), (lba), (offset), (len), (out)); \
    if (meta_status != base::Status::kOk) {                                          \
      return meta_status;                                                            \
    }                                                                                \
  } while (0)

base::Status InodeFs::TxnCommit(mk::Env& env) {
  if (!journaled()) {
    return base::Status::kOk;
  }
  WPOS_CHECK(in_txn_);
  in_txn_ = false;
  if (txn_.empty()) {
    return base::Status::kOk;
  }
  kernel_.cpu().Execute(JournalRegion());
  WPOS_CHECK(1 + txn_.size() * 2 <= kJournalSectors) << "transaction exceeds journal";
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
  inode_table_sectors_ = (kNumInodes + kInodesPerSector - 1) / kInodesPerSector;
  inode_table_start_ = 1;
  bitmap_start_ = inode_table_start_ + inode_table_sectors_;
  // Provisional block count to size the bitmap.
  uint32_t data_guess = static_cast<uint32_t>(total_sectors_) - bitmap_start_;
  bitmap_sectors_ = (data_guess / 8 + kSectorSize - 1) / kSectorSize;
  journal_start_ = bitmap_start_ + bitmap_sectors_;
  const uint32_t journal = journaled() ? kJournalSectors : 0;
  data_start_ = journal_start_ + journal;
  num_blocks_ = static_cast<uint32_t>(total_sectors_) - data_start_;
  free_blocks_ = num_blocks_;

  uint8_t sector[kSectorSize] = {};
  Superblock sb{kMagic,
                static_cast<uint32_t>(total_sectors_),
                kNumInodes,
                inode_table_start_,
                inode_table_sectors_,
                bitmap_start_,
                bitmap_sectors_,
                journal_start_,
                journal,
                data_start_,
                num_blocks_,
                journaled() ? 1u : 0u};
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
  if (ino == 0 || ino >= kNumInodes) {
    return base::Status::kInvalidArgument;
  }
  return MetaRead(env, inode_table_start_ + ino / kInodesPerSector,
                  (ino % kInodesPerSector) * kInodeSize, kInodeSize, out);
}

base::Status InodeFs::WriteInode(mk::Env& env, NodeId ino, const DiskInode& inode) {
  return MetaWrite(env, inode_table_start_ + ino / kInodesPerSector,
                   (ino % kInodesPerSector) * kInodeSize, kInodeSize, &inode);
}

base::Result<NodeId> InodeFs::AllocInode(mk::Env& env, uint32_t mode) {
  // One read per inode-table sector. Inode 0 is never handed out.
  for (uint32_t s = 0; s < inode_table_sectors_; ++s) {
    DiskInode inodes[kInodesPerSector];
    META_READ(env, inode_table_start_ + s, 0, kSectorSize, inodes);
    for (uint32_t i = 0; i < kInodesPerSector; ++i) {
      const NodeId ino = s * kInodesPerSector + i;
      if (ino == 0 || ino >= kNumInodes || inodes[i].mode != 0) {
        continue;
      }
      DiskInode fresh;
      fresh.mode = mode;
      const base::Status st = WriteInode(env, ino, fresh);
      if (st != base::Status::kOk) {
        return st;
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
    META_READ(env, bitmap_start_ + s, 0, kSectorSize, sector);
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
          const base::Status st = MetaWrite(env, bitmap_start_ + s, byte, 1, &sector[byte]);
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

base::Status InodeFs::FreeBlocks(mk::Env& env, std::vector<uint32_t> blocks) {
  std::sort(blocks.begin(), blocks.end());
  constexpr uint32_t kBlocksPerSector = kSectorSize * 8;
  for (size_t first = 0; first < blocks.size();) {
    const uint32_t s = blocks[first] / kBlocksPerSector;
    size_t end = first + 1;
    while (end < blocks.size() && blocks[end] / kBlocksPerSector == s) {
      ++end;
    }
    // The bytes from the first block's bit to the last one's.
    const uint32_t lo = blocks[first] % kBlocksPerSector / 8;
    const uint32_t len = blocks[end - 1] % kBlocksPerSector / 8 - lo + 1;
    uint8_t bytes[kSectorSize];
    META_READ(env, bitmap_start_ + s, lo, len, bytes);
    for (size_t i = first; i < end; ++i) {
      bytes[blocks[i] % kBlocksPerSector / 8 - lo] &= static_cast<uint8_t>(~(1 << (blocks[i] % 8)));
    }
    const base::Status st = MetaWrite(env, bitmap_start_ + s, lo, len, bytes);
    if (st != base::Status::kOk) {
      return st;
    }
    free_blocks_ += end - first;
    first = end;
  }
  return base::Status::kOk;
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
    static constexpr uint8_t kZeros[kSectorSize] = {};
    base::Status st = MetaWrite(env, data_start_ + *block, 0, kSectorSize, kZeros);
    if (st != base::Status::kOk) {
      return st;
    }
    st = WriteInode(env, ino, *inode);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  const uint64_t ind_lba = data_start_ + inode->indirect - 1;
  uint32_t entry;
  META_READ(env, ind_lba, ind_index * 4, 4, &entry);
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
    const base::Status st = MetaWrite(env, ind_lba, ind_index * 4, 4, &entry);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return entry - 1;
}

base::Status InodeFs::FreeBlocksFrom(mk::Env& env, DiskInode* inode, uint32_t first) {
  std::vector<uint32_t> blocks;
  for (uint32_t i = first; i < kDirect; ++i) {
    if (inode->direct[i] != 0) {
      blocks.push_back(inode->direct[i] - 1);
      inode->direct[i] = 0;
    }
  }
  const uint32_t first_ind = first > kDirect ? first - kDirect : 0;
  if (inode->indirect != 0 && first_ind < kPtrsPerIndirect) {
    const uint64_t ind_lba = data_start_ + inode->indirect - 1;
    const uint32_t bytes = (kPtrsPerIndirect - first_ind) * 4;
    uint32_t ptrs[kPtrsPerIndirect];
    META_READ(env, ind_lba, first_ind * 4, bytes, ptrs + first_ind);
    bool changed = false;
    for (uint32_t i = first_ind; i < kPtrsPerIndirect; ++i) {
      if (ptrs[i] != 0) {
        blocks.push_back(ptrs[i] - 1);
        ptrs[i] = 0;
        changed = true;
      }
    }
    if (first_ind == 0) {
      blocks.push_back(inode->indirect - 1);
      inode->indirect = 0;
    } else if (changed) {
      // Blocks below `first` still hang off the indirect block.
      const base::Status st = MetaWrite(env, ind_lba, first_ind * 4, bytes, ptrs + first_ind);
      if (st != base::Status::kOk) {
        return st;
      }
    }
  }
  return FreeBlocks(env, std::move(blocks));
}

// --- Directory entries -------------------------------------------------------------------

base::Result<uint64_t> InodeFs::ScanDir(
    mk::Env& env, DiskInode* inode, NodeId dir,
    const std::function<bool(const Dirent64&, uint64_t)>& visit) {
  const uint64_t end = inode->size / kDirentSize * kDirentSize;
  for (uint64_t at = 0; at < end; at += kSectorSize) {
    auto block = MapBlock(env, inode, dir, static_cast<uint32_t>(at / kSectorSize),
                          /*allocate=*/false);
    if (block.status() == base::Status::kNotFound) {
      continue;  // a hole holds no entries
    }
    if (!block.ok()) {
      return block.status();
    }
    const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(kSectorSize, end - at));
    Dirent64 entries[kSectorSize / kDirentSize];
    META_READ(env, data_start_ + *block, 0, len, entries);
    for (uint32_t i = 0; i < len / kDirentSize; ++i) {
      if (visit(entries[i], at + i * kDirentSize)) {
        return at + i * kDirentSize;
      }
    }
  }
  return inode->size;
}

base::Result<InodeFs::FoundEntry> InodeFs::FindEntry(mk::Env& env, NodeId dir,
                                                     const std::string& name) {
  if (kind_ == PfsKind::kFat) {
    // An 8.3 name is found by its stored form, and a long one is refused
    // here as at create.
    auto stored = StoredName(name);
    if (!stored.ok()) {
      return stored.status();
    }
    if (*stored != name) {
      return FindEntry(env, dir, *stored);
    }
  }
  DiskInode inode;
  base::Status st = ReadInode(env, dir, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode != 2) {
    return base::Status::kInvalidArgument;
  }
  FoundEntry found;
  auto at = ScanDir(env, &inode, dir, [&](const Dirent64& e, uint64_t) {
    if (e.used == 0 || !NamesEqual(name, e.name)) {
      return false;
    }
    found.entry = e;
    return true;
  });
  if (!at.ok()) {
    return at.status();
  }
  if (*at == inode.size) {
    return base::Status::kNotFound;
  }
  found.offset = *at;
  return found;
}

base::Status InodeFs::WriteEntry(mk::Env& env, NodeId dir, uint64_t slot_offset,
                                 const Dirent64& e) {
  DiskInode inode;
  base::Status st = ReadInode(env, dir, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  // MapBlock records a fresh block in `inode` as well as on disk.
  const uint32_t block_index = static_cast<uint32_t>(slot_offset / kSectorSize);
  auto block = MapBlock(env, &inode, dir, block_index, /*allocate=*/true);
  if (!block.ok()) {
    return block.status();
  }
  st = MetaWrite(env, data_start_ + *block, slot_offset % kSectorSize, kDirentSize, &e);
  if (st != base::Status::kOk) {
    return st;
  }
  if (slot_offset + kDirentSize > inode.size) {
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
  return found->entry.ino;
}

base::Result<NodeId> InodeFs::Create(mk::Env& env, NodeId dir, const std::string& name,
                                     bool directory) {
  kernel_.cpu().Execute(LookupRegion());
  auto stored = StoredName(name);
  if (!stored.ok()) {
    return stored.status();
  }
  if (FindEntry(env, dir, *stored).ok()) {
    return base::Status::kAlreadyExists;
  }
  Txn txn(*this);
  auto ino = AllocInode(env, directory ? 2u : 1u);
  if (!ino.ok()) {
    return ino.status();
  }
  // The first free slot, or a new one at the end.
  DiskInode dnode;
  base::Status st = ReadInode(env, dir, &dnode);
  if (st != base::Status::kOk) {
    return st;
  }
  auto slot = ScanDir(env, &dnode, dir, [](const Dirent64& e, uint64_t) { return e.used == 0; });
  if (!slot.ok()) {
    return slot.status();
  }
  Dirent64 e;
  std::strncpy(e.name, stored->c_str(), kNameMax);
  e.ino = static_cast<uint32_t>(*ino);
  e.used = 1;
  e.directory = directory ? 1 : 0;
  st = WriteEntry(env, dir, *slot, e);
  if (st != base::Status::kOk) {
    return st;
  }
  st = txn.Commit(env);
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
  const NodeId node = found->entry.ino;
  DiskInode inode;
  base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  if (inode.mode == 2) {
    // Directory: must be empty.
    auto used = ScanDir(env, &inode, node, [](const Dirent64& e, uint64_t) { return e.used != 0; });
    if (!used.ok()) {
      return used.status();
    }
    if (*used != inode.size) {
      return base::Status::kBusy;
    }
  }
  Txn txn(*this);
  st = FreeBlocksFrom(env, &inode, 0);
  if (st != base::Status::kOk) {
    return st;
  }
  st = FreeInode(env, node);
  if (st != base::Status::kOk) {
    return st;
  }
  Dirent64 empty;
  st = WriteEntry(env, dir, found->offset, empty);
  if (st != base::Status::kOk) {
    return st;
  }
  return txn.Commit(env);
}

base::Status InodeFs::Rename(mk::Env& env, NodeId from_dir, const std::string& from,
                             NodeId to_dir, const std::string& to) {
  auto stored = StoredName(to);
  if (!stored.ok()) {
    return stored.status();
  }
  auto found = FindEntry(env, from_dir, from);
  if (!found.ok()) {
    return found.status();
  }
  if (FindEntry(env, to_dir, *stored).ok()) {
    return base::Status::kAlreadyExists;
  }
  Txn txn(*this);
  // The same entry under the new name: its inode and type move with it.
  Dirent64 e = found->entry;
  std::memset(e.name, 0, sizeof(e.name));
  std::strncpy(e.name, stored->c_str(), kNameMax);
  // Append in the destination, clear the source slot.
  DiskInode dnode;
  base::Status st = ReadInode(env, to_dir, &dnode);
  if (st != base::Status::kOk) {
    return st;
  }
  st = WriteEntry(env, to_dir, dnode.size, e);
  if (st != base::Status::kOk) {
    return st;
  }
  Dirent64 empty;
  st = WriteEntry(env, from_dir, found->offset, empty);
  if (st != base::Status::kOk) {
    return st;
  }
  return txn.Commit(env);
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
  if (inode.mode != 1) {
    return base::Status::kInvalidArgument;  // a directory holds no file data
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
      const base::Status rst = cache_->ReadBytes(env, data_start_ + *block, in_block, chunk,
                                                 static_cast<uint8_t*>(out) + done);
      if (rst != base::Status::kOk) {
        return rst;
      }
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
  // A file maps at most kDirect + kPtrsPerIndirect blocks: an extent past
  // them is refused whole, checked so that it cannot wrap, before any block
  // is taken.
  constexpr uint64_t kMaxBytes = uint64_t{kDirect + kPtrsPerIndirect} * kSectorSize;
  if (offset > kMaxBytes || len > kMaxBytes - offset) {
    return base::Status::kTooLarge;
  }
  Txn txn(*this);  // block-pointer/bitmap updates are metadata
  const uint64_t old_size = inode.size;
  uint32_t done = 0;
  while (st == base::Status::kOk && done < len) {
    const uint64_t pos = offset + done;
    const uint32_t block_index = static_cast<uint32_t>(pos / kSectorSize);
    const uint32_t in_block = static_cast<uint32_t>(pos % kSectorSize);
    const uint32_t chunk = std::min(len - done, kSectorSize - in_block);
    bool fresh = false;
    auto block = MapBlock(env, &inode, node, block_index, /*allocate=*/true, &fresh);
    if (!block.ok()) {
      st = block.status();
      break;
    }
    const uint8_t* src = static_cast<const uint8_t*>(data) + done;
    if (fresh && chunk < kSectorSize) {
      // A fresh block is written whole, zeros around the chunk: its old
      // bytes are a previous owner's.
      uint8_t sector[kSectorSize] = {};
      std::memcpy(sector + in_block, src, chunk);
      st = cache_->WriteSector(env, data_start_ + *block, sector);
    } else {
      st = cache_->WriteBytes(env, data_start_ + *block, in_block, chunk, src);
    }
    done += chunk;
  }
  // MapBlock kept `inode` current, so the size update needs no re-read.
  if (st == base::Status::kOk && offset + len > old_size) {
    inode.size = offset + len;
    st = WriteInode(env, node, inode);
  }
  if (st != base::Status::kOk) {
    // A write that fails, out of blocks say, gives back every block it
    // mapped past the old end. A journal's transaction drops them as it
    // ends; without one, they are freed here.
    if (!journaled()) {
      inode.size = old_size;
      (void)FreeBlocksFrom(env, &inode,
                           static_cast<uint32_t>((old_size + kSectorSize - 1) / kSectorSize));
      (void)WriteInode(env, node, inode);
    }
    return st;
  }
  st = txn.Commit(env);
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
  Txn txn(*this);
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
    return st;
  }
  inode.size = size;
  st = WriteInode(env, node, inode);
  if (st != base::Status::kOk) {
    return st;
  }
  return txn.Commit(env);
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
  // Each entry carries its child's type: no child inode is read.
  std::vector<DirEntry> out;
  auto scanned = ScanDir(env, &inode, dir, [&](const Dirent64& e, uint64_t) {
    if (e.used != 0) {
      out.push_back({.name = e.name, .node = e.ino, .directory = e.directory != 0});
    }
    return false;
  });
  if (!scanned.ok()) {
    return scanned.status();
  }
  return out;
}

base::Status InodeFs::SetEa(mk::Env& env, NodeId node, const std::string& key,
                            const std::string& value) {
  if (kind_ == PfsKind::kFat) {
    return base::Status::kNotSupported;
  }
  if (key.size() + value.size() + 2 > sizeof(DiskInode{}.ea[0])) {
    return base::Status::kTooLarge;
  }
  DiskInode inode;
  base::Status st = ReadInode(env, node, &inode);
  if (st != base::Status::kOk) {
    return st;
  }
  Txn txn(*this);
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
    return base::Status::kNoSpace;
  }
  std::memset(inode.ea[slot], 0, sizeof(inode.ea[slot]));
  std::memcpy(inode.ea[slot], key.c_str(), key.size());
  std::memcpy(inode.ea[slot] + key.size() + 1, value.c_str(), value.size());
  st = WriteInode(env, node, inode);
  if (st != base::Status::kOk) {
    return st;
  }
  return txn.Commit(env);
}

base::Result<std::string> InodeFs::GetEa(mk::Env& env, NodeId node, const std::string& key) {
  if (kind_ == PfsKind::kFat) {
    return base::Status::kNotSupported;
  }
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
