// The inode-based physical file system, in three flavours (PfsKind):
//   - HPFS: long names, case-insensitive but case-preserving, extended
//     attributes, no journal;
//   - JFS: long names, case-sensitive, extended attributes, and a physical
//     redo journal for metadata (write-ahead logged, replayed on mount);
//   - FAT: HPFS's layout behind an 8.3 name rule. The paper's "old FAT
//     format used by OS/2 ... supports only 8 character file names followed
//     by a '.' followed by 3 character extensions", so a long name cannot
//     be stored: it answers kNotSupported. Names are stored upper-cased,
//     and there are no extended attributes. FAT's on-disk format (its
//     table, clusters and fixed root directory) is not modelled.
// Each runs against the shared block cache, like the real file server's
// vnode-dispatched physical file systems.
#ifndef SRC_SVC_FS_INODE_FS_H_
#define SRC_SVC_FS_INODE_FS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/pfs.h"

namespace svc {

// The flavour of a physical file system, and the one setting of an InodeFs.
enum class PfsKind { kFat, kHpfs, kJfs };

class InodeFs : public Pfs {
 public:
  static constexpr uint32_t kMagic = 0x57494e31;  // "WIN1"
  static constexpr uint32_t kSectorSize = 512;
  static constexpr uint32_t kInodeSize = 256;
  static constexpr uint32_t kInodesPerSector = kSectorSize / kInodeSize;
  static constexpr uint32_t kDirect = 12;
  static constexpr uint32_t kPtrsPerIndirect = kSectorSize / 4;
  static constexpr uint32_t kDirentSize = 64;
  static constexpr uint32_t kNameMax = 55;
  static constexpr uint32_t kEaSlots = 2;
  static constexpr NodeId kRootInode = 1;
  static constexpr uint32_t kNumInodes = 1024;
  static constexpr uint32_t kJournalSectors = 256;  // only if journaled

  // The cache (and its block store) must outlive the file system. `sectors`
  // bounds the region of the device this file system occupies.
  InodeFs(mk::Kernel& kernel, BlockCache* cache, uint64_t sectors, PfsKind kind);

  base::Status Format(mk::Env& env) override;

  bool case_sensitive() const override { return kind_ == PfsKind::kJfs; }

  base::Status Mount(mk::Env& env) override;
  base::Status Sync(mk::Env& env) override;
  NodeId root() const override { return kRootInode; }
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
  base::Status SetEa(mk::Env& env, NodeId node, const std::string& key,
                     const std::string& value) override;
  base::Result<std::string> GetEa(mk::Env& env, NodeId node, const std::string& key) override;

  uint64_t journal_records() const { return journal_records_; }
  uint64_t journal_replays() const { return journal_replays_; }
  uint64_t free_blocks() const { return free_blocks_; }

  // Test hook: fail before the journal is applied to the main area, leaving
  // only the log written. A subsequent Mount must replay it.
  void CrashBeforeApply() { crash_before_apply_ = true; }

 private:
  struct DiskInode {
    uint32_t mode = 0;  // 0 free, 1 file, 2 directory
    uint32_t reserved = 0;
    uint64_t size = 0;
    uint32_t direct[kDirect] = {};
    uint32_t indirect = 0;
    char ea[kEaSlots][48] = {};  // "key\0value\0"
    uint8_t pad[kInodeSize - 4 - 4 - 8 - kDirect * 4 - 4 - kEaSlots * 48] = {};
  };
  static_assert(sizeof(DiskInode) == kInodeSize);

  struct Dirent64 {
    char name[kNameMax + 1] = {};  // NUL-terminated, case preserved
    uint32_t ino = 0;
    uint8_t used = 0;
    // The child's type, as HPFS keeps the attribute byte in its DIRENT: a
    // listing reads no child inode.
    uint8_t directory = 0;
    uint8_t pad[2] = {};
  };
  static_assert(sizeof(Dirent64) == kDirentSize);

  struct FoundEntry {
    Dirent64 entry;
    uint64_t offset = 0;  // of its slot in the directory
  };

  // One op's metadata transaction. The constructor begins it and Commit
  // logs and applies it. Every other way out of the scope (an error return)
  // aborts it: the staged sectors drop and free_blocks_ is restored, so a
  // failed JFS op changes no metadata. Without a journal both ends do
  // nothing, and each metadata write has already gone to the cache.
  class Txn {
   public:
    explicit Txn(InodeFs& fs);
    ~Txn();
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;
    base::Status Commit(mk::Env& env) { return fs_.TxnCommit(env); }

   private:
    InodeFs& fs_;
  };

  bool journaled() const { return kind_ == PfsKind::kJfs; }
  bool NamesEqual(const std::string& a, const char* b) const;
  // The form `name` is stored and found under. Every flavour refuses an
  // empty name, one longer than kNameMax, one holding '/', and "." and ".."
  // (kInvalidArgument). FAT upper-cases an 8.3 name and refuses anything
  // longer with kNotSupported. Charges nothing.
  base::Result<std::string> StoredName(const std::string& name) const;

  // Metadata bytes [offset, offset + len) of sector `lba`. Reads see the
  // in-flight transaction's staged sectors. A write inside a transaction
  // stages the whole sector, to be logged at commit; otherwise it goes to
  // the cache in place.
  base::Status MetaRead(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len, void* out);
  base::Status MetaWrite(mk::Env& env, uint64_t lba, uint32_t offset, uint32_t len,
                         const void* data);
  base::Status TxnCommit(mk::Env& env);
  base::Status ReplayJournal(mk::Env& env);

  base::Status ReadInode(mk::Env& env, NodeId ino, DiskInode* out);
  base::Status WriteInode(mk::Env& env, NodeId ino, const DiskInode& inode);
  base::Result<NodeId> AllocInode(mk::Env& env, uint32_t mode);
  base::Status FreeInode(mk::Env& env, NodeId ino);
  base::Result<uint32_t> AllocBlock(mk::Env& env);
  // Clears the bitmap bits of `blocks`: one read-modify-write per bitmap
  // sector, of the bytes between its first and last bit.
  base::Status FreeBlocks(mk::Env& env, std::vector<uint32_t> blocks);
  // Block number backing file-block `index` of `inode`; optionally allocates.
  // `fresh` (optional) reports whether the block was newly allocated — a
  // fresh block's on-disk content is whatever a previous owner left there
  // and must be zeroed before partial writes.
  base::Result<uint32_t> MapBlock(mk::Env& env, DiskInode* inode, NodeId ino, uint32_t index,
                                  bool allocate, bool* fresh = nullptr);
  // Frees the blocks backing file blocks `first` and up, and the indirect
  // block once nothing is left behind it.
  base::Status FreeBlocksFrom(mk::Env& env, DiskInode* inode, uint32_t first);
  // Calls `visit(entry, slot_offset)` on each slot of directory `dir` (whose
  // inode is `inode`) in order, reading each sector once; a hole holds no
  // slots. Answers the offset of the first slot `visit` returns true for,
  // or the directory's size when there is none.
  base::Result<uint64_t> ScanDir(mk::Env& env, DiskInode* inode, NodeId dir,
                                 const std::function<bool(const Dirent64&, uint64_t)>& visit);
  base::Result<FoundEntry> FindEntry(mk::Env& env, NodeId dir, const std::string& name);
  base::Status WriteEntry(mk::Env& env, NodeId dir, uint64_t slot_offset, const Dirent64& e);

  mk::Kernel& kernel_;
  BlockCache* cache_;
  uint64_t total_sectors_;
  PfsKind kind_;

  uint32_t inode_table_start_ = 0;
  uint32_t inode_table_sectors_ = 0;
  uint32_t bitmap_start_ = 0;
  uint32_t bitmap_sectors_ = 0;
  uint32_t journal_start_ = 0;
  uint32_t data_start_ = 0;
  uint32_t num_blocks_ = 0;
  uint64_t free_blocks_ = 0;

  // In-flight transaction (journaled mode).
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> txn_;
  bool in_txn_ = false;
  uint64_t txn_free_blocks_ = 0;  // free_blocks_ when the transaction began
  uint64_t next_txn_seq_ = 1;
  uint32_t journal_head_ = 0;  // sector offset within the journal region
  uint64_t journal_records_ = 0;
  uint64_t journal_replays_ = 0;
  bool crash_before_apply_ = false;
  bool mounted_ = false;
};

}  // namespace svc

#endif  // SRC_SVC_FS_INODE_FS_H_
