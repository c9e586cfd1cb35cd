// Property-style contract tests run against every physical file system
// flavour (FAT, HPFS, JFS): whatever its names and journal, the Pfs
// interface must behave like a file system. A host-side oracle (std::map of
// name -> bytes, or of name -> type for directories) checks every
// operation's result after randomized op sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "src/base/rng.h"
#include "src/svc/fs/inode_fs.h"
#include "tests/mk/kernel_test_fixture.h"
#include "tests/props/seeds.h"

namespace svc {
namespace {

std::string KindName(PfsKind k) {
  switch (k) {
    case PfsKind::kFat:
      return "fat";
    case PfsKind::kHpfs:
      return "hpfs";
    case PfsKind::kJfs:
      return "jfs";
  }
  return "?";
}

class PfsContractTest : public mk::KernelTest,
                        public ::testing::WithParamInterface<PfsKind> {
 protected:
  PfsContractTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk_, 5'000);
    cache_ = std::make_unique<BlockCache>(kernel_, store_.get(), 2048);
    pfs_ = NewInstance();
  }

  void RunInThread(std::function<void(mk::Env&)> body) {
    mk::Task* task = kernel_.CreateTask("t");
    kernel_.CreateThread(task, "t", std::move(body));
    ASSERT_EQ(kernel_.Run(), 0u);
  }

  // A fresh instance of the file system under test over the same cache and
  // disk, for a remount.
  std::unique_ptr<InodeFs> NewInstance() {
    return std::make_unique<InodeFs>(kernel_, cache_.get(), 65536, GetParam());
  }

  // A legal file name for every PFS under test (8.3-safe).
  static std::string Name(int i) { return "F" + std::to_string(i) + ".DAT"; }

  hw::Disk* disk_;
  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<InodeFs> pfs_;
};

TEST_P(PfsContractTest, WriteReadRoundTripAcrossSizes) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    // Sizes chosen to hit sector boundaries and the indirect-block
    // threshold.
    const uint32_t sizes[] = {1, 511, 512, 513, 2047, 2048, 4096, 10000, 20000};
    int i = 0;
    for (uint32_t size : sizes) {
      auto node = pfs_->Create(env, pfs_->root(), Name(i), false);
      ASSERT_TRUE(node.ok()) << KindName(GetParam()) << " size " << size;
      std::vector<uint8_t> data(size);
      base::Rng rng(size);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      auto wrote = pfs_->Write(env, *node, 0, data.data(), size);
      ASSERT_TRUE(wrote.ok());
      ASSERT_EQ(*wrote, size);
      std::vector<uint8_t> back(size);
      auto got = pfs_->Read(env, *node, 0, back.data(), size);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, size);
      EXPECT_EQ(back, data) << KindName(GetParam()) << " size " << size;
      auto attr = pfs_->GetAttr(env, *node);
      ASSERT_TRUE(attr.ok());
      EXPECT_EQ(attr->size, size);
      ++i;
    }
  });
}

TEST_P(PfsContractTest, OverwriteInMiddlePreservesRest) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    auto node = pfs_->Create(env, pfs_->root(), "MID.DAT", false);
    ASSERT_TRUE(node.ok());
    std::vector<uint8_t> data(6000, 0x11);
    ASSERT_TRUE(pfs_->Write(env, *node, 0, data.data(), 6000).ok());
    std::vector<uint8_t> patch(100, 0x99);
    ASSERT_TRUE(pfs_->Write(env, *node, 2500, patch.data(), 100).ok());
    std::vector<uint8_t> back(6000);
    ASSERT_TRUE(pfs_->Read(env, *node, 0, back.data(), 6000).ok());
    EXPECT_EQ(back[2499], 0x11);
    EXPECT_EQ(back[2500], 0x99);
    EXPECT_EQ(back[2599], 0x99);
    EXPECT_EQ(back[2600], 0x11);
    auto attr = pfs_->GetAttr(env, *node);
    EXPECT_EQ(attr->size, 6000u) << "overwrite must not grow the file";
  });
}

TEST_P(PfsContractTest, ReadPastEofTruncates) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    auto node = pfs_->Create(env, pfs_->root(), "EOF.DAT", false);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE(pfs_->Write(env, *node, 0, "12345", 5).ok());
    char buf[32];
    auto got = pfs_->Read(env, *node, 3, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 2u);
    got = pfs_->Read(env, *node, 5, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 0u);
    got = pfs_->Read(env, *node, 100, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 0u);
  });
}

TEST_P(PfsContractTest, DirectoryListingMatchesOracle) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    std::map<std::string, bool> oracle;  // name -> is_dir
    for (int i = 0; i < 12; ++i) {
      const bool dir = i % 3 == 0;
      const std::string name = (dir ? "D" : "F") + std::to_string(i);
      ASSERT_TRUE(pfs_->Create(env, pfs_->root(), name, dir).ok());
      oracle[name] = dir;
    }
    // Remove a few.
    ASSERT_EQ(pfs_->Remove(env, pfs_->root(), "F1"), base::Status::kOk);
    ASSERT_EQ(pfs_->Remove(env, pfs_->root(), "D6"), base::Status::kOk);
    oracle.erase("F1");
    oracle.erase("D6");
    auto entries = pfs_->ReadDir(env, pfs_->root());
    ASSERT_TRUE(entries.ok());
    std::map<std::string, bool> found;
    for (const DirEntry& e : *entries) {
      found[e.name] = e.directory;
    }
    EXPECT_EQ(found, oracle) << KindName(GetParam());
  });
}

TEST_P(PfsContractTest, RandomOpsAgainstOracle) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    std::map<std::string, std::vector<uint8_t>> oracle;
    std::map<std::string, NodeId> nodes;
    base::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
    for (int step = 0; step < 150; ++step) {
      const int op = static_cast<int>(rng.NextBelow(5));
      const std::string name = Name(static_cast<int>(rng.NextBelow(8)));
      switch (op) {
        case 0: {  // create
          auto node = pfs_->Create(env, pfs_->root(), name, false);
          if (oracle.contains(name)) {
            EXPECT_EQ(node.status(), base::Status::kAlreadyExists);
          } else {
            ASSERT_TRUE(node.ok());
            oracle[name] = {};
            nodes[name] = *node;
          }
          break;
        }
        case 1: {  // write at random offset within [0, 6K)
          if (!oracle.contains(name)) {
            break;
          }
          const uint64_t off = rng.NextBelow(6000);
          const uint32_t len = static_cast<uint32_t>(rng.NextInRange(1, 700));
          std::vector<uint8_t> data(len);
          for (auto& b : data) {
            b = static_cast<uint8_t>(rng.Next());
          }
          ASSERT_TRUE(pfs_->Write(env, nodes[name], off, data.data(), len).ok());
          auto& file = oracle[name];
          if (file.size() < off + len) {
            file.resize(off + len, 0);
          }
          std::copy(data.begin(), data.end(), file.begin() + static_cast<long>(off));
          break;
        }
        case 2: {  // read-and-compare a random window
          if (!oracle.contains(name)) {
            EXPECT_FALSE(pfs_->Lookup(env, pfs_->root(), name).ok());
            break;
          }
          const auto& file = oracle[name];
          std::vector<uint8_t> buf(800);
          const uint64_t off = rng.NextBelow(file.size() + 100);
          auto got = pfs_->Read(env, nodes[name], off, buf.data(),
                                static_cast<uint32_t>(buf.size()));
          ASSERT_TRUE(got.ok());
          const uint64_t expect =
              off >= file.size() ? 0 : std::min<uint64_t>(buf.size(), file.size() - off);
          ASSERT_EQ(*got, expect);
          for (uint64_t i = 0; i < expect; ++i) {
            ASSERT_EQ(buf[i], file[off + i]) << name << " offset " << off + i;
          }
          break;
        }
        case 3: {  // remove
          const base::Status st = pfs_->Remove(env, pfs_->root(), name);
          if (oracle.contains(name)) {
            ASSERT_EQ(st, base::Status::kOk);
            oracle.erase(name);
            nodes.erase(name);
          } else {
            EXPECT_EQ(st, base::Status::kNotFound);
          }
          break;
        }
        case 4: {  // truncate, then write past the new end: the gap reads zeros
          if (!oracle.contains(name) || oracle[name].empty()) {
            break;
          }
          auto& file = oracle[name];
          // Cut up to 700 bytes, mostly the last write's, off the end, then
          // grow the file back to its old size with a one-byte write.
          const uint64_t old_size = file.size();
          const uint64_t size = old_size - rng.NextBelow(std::min<uint64_t>(old_size, 700) + 1);
          ASSERT_EQ(pfs_->SetSize(env, nodes[name], size), base::Status::kOk);
          const uint8_t last = static_cast<uint8_t>(rng.Next());
          ASSERT_TRUE(pfs_->Write(env, nodes[name], old_size - 1, &last, 1).ok());
          file.resize(size);
          file.resize(old_size, 0);
          file.back() = last;
          std::vector<uint8_t> back(old_size - size);
          auto got = pfs_->Read(env, nodes[name], size, back.data(),
                                static_cast<uint32_t>(back.size()));
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(*got, back.size());
          for (uint64_t i = 0; i < back.size(); ++i) {
            ASSERT_EQ(back[i], file[size + i]) << name << " offset " << size + i;
          }
          break;
        }
      }
    }
    // Everything still readable at the end.
    for (const auto& [name, file] : oracle) {
      std::vector<uint8_t> back(file.size());
      if (!file.empty()) {
        auto got = pfs_->Read(env, nodes[name], 0, back.data(),
                              static_cast<uint32_t>(back.size()));
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(back, file) << name;
      }
    }
  });
}

// Truncation must not leave old bytes behind: after a write past the new
// end, everything between the new size and that write reads back as zeros.
// (3000 -> 100 keeps part of one block; 8192 -> 0 drops blocks that hang
// off an inode's indirect pointer.)
TEST_P(PfsContractTest, TruncateThenWritePastEndReadsZeros) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    const std::pair<uint32_t, uint32_t> cases[] = {{3000, 100}, {8192, 0}};
    int i = 0;
    for (const auto& [n, m] : cases) {
      auto node = pfs_->Create(env, pfs_->root(), Name(i++), false);
      ASSERT_TRUE(node.ok());
      const std::vector<uint8_t> old_bytes(n, 0xAA);
      ASSERT_TRUE(pfs_->Write(env, *node, 0, old_bytes.data(), n).ok());
      EXPECT_EQ(pfs_->SetSize(env, *node, n + 1), base::Status::kNotSupported)
          << "growth goes through Write";
      ASSERT_EQ(pfs_->SetSize(env, *node, m), base::Status::kOk);
      const uint8_t last = 0xBB;
      ASSERT_TRUE(pfs_->Write(env, *node, n - 1, &last, 1).ok());
      std::vector<uint8_t> expect(n, 0);
      std::fill(expect.begin(), expect.begin() + m, 0xAA);
      expect[n - 1] = last;
      std::vector<uint8_t> back(n);
      auto got = pfs_->Read(env, *node, 0, back.data(), n);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, n);
      EXPECT_EQ(std::count(back.begin(), back.end(), 0xAA), m)
          << KindName(GetParam()) << " " << n << " -> " << m << ": stale bytes";
      EXPECT_EQ(back, expect) << KindName(GetParam()) << " " << n << " -> " << m;
    }
  });
}

TEST_P(PfsContractTest, PersistsAcrossRemountWithSameOracle) {
  std::map<std::string, std::vector<uint8_t>> oracle;
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    base::Rng rng(4242);
    for (int i = 0; i < 5; ++i) {
      const std::string name = Name(i);
      auto node = pfs_->Create(env, pfs_->root(), name, false);
      ASSERT_TRUE(node.ok());
      std::vector<uint8_t> data(rng.NextInRange(100, 3000));
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(pfs_->Write(env, *node, 0, data.data(),
                              static_cast<uint32_t>(data.size())).ok());
      oracle[name] = std::move(data);
    }
    ASSERT_EQ(pfs_->Sync(env), base::Status::kOk);
  });
  const std::unique_ptr<Pfs> remounted = NewInstance();
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(remounted->Mount(env), base::Status::kOk);
    for (const auto& [name, data] : oracle) {
      auto node = remounted->Lookup(env, remounted->root(), name);
      ASSERT_TRUE(node.ok()) << name;
      std::vector<uint8_t> back(data.size());
      auto got = remounted->Read(env, *node, 0, back.data(),
                                 static_cast<uint32_t>(back.size()));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(back, data) << name;
    }
  });
}

// One directory of about 40 names, five or more sectors of 64-byte entries,
// under seeded create, mkdir, remove, rename, lookup and listing, against a
// name -> type oracle; then a remount lists it again. Directories are
// removable only while empty, so some get a child.
TEST_P(PfsContractTest, SeededDirectoryMatchesOracle) {
  struct Entry {
    bool directory = false;
    bool has_child = false;
  };
  const auto expect_listing = [](mk::Env& env, Pfs& pfs,
                                 const std::map<std::string, Entry>& oracle) {
    auto entries = pfs.ReadDir(env, pfs.root());
    ASSERT_TRUE(entries.ok());
    std::map<std::string, bool> listed;
    for (const DirEntry& e : *entries) {
      EXPECT_TRUE(listed.emplace(e.name, e.directory).second) << "listed twice: " << e.name;
    }
    std::map<std::string, bool> expect;
    for (const auto& [name, entry] : oracle) {
      expect[name] = entry.directory;
    }
    EXPECT_EQ(listed, expect);
    for (const auto& [name, entry] : oracle) {
      auto node = pfs.Lookup(env, pfs.root(), name);
      ASSERT_TRUE(node.ok()) << name;
      auto attr = pfs.GetAttr(env, *node);
      ASSERT_TRUE(attr.ok()) << name;
      EXPECT_EQ(attr->directory, entry.directory) << name;
    }
  };
  for (const uint64_t seed : props::SeedsUnderTest()) {
    SCOPED_TRACE(testing::Message() << KindName(GetParam()) << " WPOS_PROPS_SEED=" << seed);
    std::map<std::string, Entry> oracle;
    RunInThread([&](mk::Env& env) {
      ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
      base::Rng rng(seed);
      // 8.3 names, upper case, so every file system stores them as given.
      const auto pick = [&] { return "E" + std::to_string(rng.NextBelow(48)) + ".DAT"; };
      const NodeId root = pfs_->root();
      while (oracle.size() < 40) {
        const std::string name = pick();
        const bool dir = rng.NextBelow(4) == 0;
        auto node = pfs_->Create(env, root, name, dir);
        if (oracle.contains(name)) {
          ASSERT_EQ(node.status(), base::Status::kAlreadyExists) << name;
        } else {
          ASSERT_TRUE(node.ok()) << name;
          oracle[name] = {.directory = dir};
        }
      }
      for (int step = 0; step < 200; ++step) {
        const std::string name = pick();
        const auto it = oracle.find(name);
        switch (rng.NextBelow(6)) {
          case 0:    // create
          case 1: {  // mkdir
            const bool dir = rng.NextBelow(2) == 0;
            auto node = pfs_->Create(env, root, name, dir);
            if (it != oracle.end()) {
              ASSERT_EQ(node.status(), base::Status::kAlreadyExists) << name;
            } else {
              ASSERT_TRUE(node.ok()) << name;
              oracle[name] = {.directory = dir};
            }
            break;
          }
          case 2: {  // remove
            const base::Status st = pfs_->Remove(env, root, name);
            if (it == oracle.end()) {
              ASSERT_EQ(st, base::Status::kNotFound) << name;
            } else if (it->second.has_child) {
              ASSERT_EQ(st, base::Status::kBusy) << name;
            } else {
              ASSERT_EQ(st, base::Status::kOk) << name;
              oracle.erase(it);
            }
            break;
          }
          case 3: {  // rename
            const std::string to = pick();
            const base::Status st = pfs_->Rename(env, root, name, root, to);
            if (it == oracle.end()) {
              ASSERT_EQ(st, base::Status::kNotFound) << name;
            } else if (oracle.contains(to)) {
              ASSERT_EQ(st, base::Status::kAlreadyExists) << name << " -> " << to;
            } else {
              ASSERT_EQ(st, base::Status::kOk) << name << " -> " << to;
              oracle[to] = it->second;
              oracle.erase(it);
            }
            break;
          }
          case 4: {  // lookup
            auto node = pfs_->Lookup(env, root, name);
            ASSERT_EQ(node.ok(), it != oracle.end()) << name;
            if (node.ok()) {
              auto attr = pfs_->GetAttr(env, *node);
              ASSERT_TRUE(attr.ok()) << name;
              EXPECT_EQ(attr->directory, it->second.directory) << name;
            }
            break;
          }
          case 5: {  // give an empty directory a child, or list
            if (it != oracle.end() && it->second.directory && !it->second.has_child) {
              auto dir = pfs_->Lookup(env, root, name);
              ASSERT_TRUE(dir.ok()) << name;
              ASSERT_TRUE(pfs_->Create(env, *dir, "CHILD.DAT", false).ok()) << name;
              it->second.has_child = true;
            } else {
              expect_listing(env, *pfs_, oracle);
            }
            break;
          }
        }
      }
      expect_listing(env, *pfs_, oracle);
      ASSERT_EQ(pfs_->Sync(env), base::Status::kOk);
    });
    const std::unique_ptr<Pfs> remounted = NewInstance();
    RunInThread([&](mk::Env& env) {
      ASSERT_EQ(remounted->Mount(env), base::Status::kOk);
      expect_listing(env, *remounted, oracle);
    });
  }
}

// A write a file system cannot hold is refused before it changes anything:
// past the largest file an inode maps (140 blocks), past the volume, or
// where offset + len wraps. The file's bytes and size and the free space
// stay as they were, and the volume still takes a small write. HPFS and JFS
// used to cut the block index to 32 bits and write block 0.
TEST_P(PfsContractTest, RefusedWritesChangeNothing) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    auto node = pfs_->Create(env, pfs_->root(), "FAR.DAT", false);
    ASSERT_TRUE(node.ok());
    const std::string old = "0123456789";
    ASSERT_TRUE(pfs_->Write(env, *node, 0, old.data(), 10).ok());
    const uint64_t free_before = pfs_->free_blocks();
    for (const uint64_t offset : {1ull << 41, 64ull << 20, ~0ull - 2047}) {
      EXPECT_FALSE(pfs_->Write(env, *node, offset, "abcd", 4).ok())
          << KindName(GetParam()) << " offset " << offset;
      char back[16] = {};
      auto got = pfs_->Read(env, *node, 0, back, sizeof(back));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(std::string(back, *got), old) << KindName(GetParam()) << " offset " << offset;
      auto attr = pfs_->GetAttr(env, *node);
      ASSERT_TRUE(attr.ok());
      EXPECT_EQ(attr->size, 10u) << KindName(GetParam()) << " offset " << offset;
      EXPECT_EQ(pfs_->free_blocks(), free_before) << KindName(GetParam()) << " offset " << offset;
    }
    auto next = pfs_->Create(env, pfs_->root(), "NEXT.DAT", false);
    ASSERT_TRUE(next.ok());
    EXPECT_TRUE(pfs_->Write(env, *next, 0, "hello", 5).ok());
  });
}

// A directory is not a file: a read, a write or a truncate through the root
// or a subdirectory answers kInvalidArgument, and neither listing nor the
// free space changes.
TEST_P(PfsContractTest, FileIoOnADirectoryIsInvalidArgument) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    const auto names = [&](NodeId dir) {
      std::vector<std::string> out;
      auto entries = pfs_->ReadDir(env, dir);
      EXPECT_TRUE(entries.ok());
      if (entries.ok()) {
        for (const DirEntry& e : *entries) {
          out.push_back(e.name);
        }
      }
      return out;
    };
    auto sub = pfs_->Create(env, pfs_->root(), "SUB", /*directory=*/true);
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(pfs_->Create(env, *sub, "INNER.DAT", false).ok());
    const uint64_t free_before = pfs_->free_blocks();
    const std::vector<std::string> root_names = names(pfs_->root());
    const std::vector<std::string> sub_names = names(*sub);
    for (const NodeId dir : {pfs_->root(), *sub}) {
      SCOPED_TRACE(KindName(GetParam()) + (dir == pfs_->root() ? " root" : " subdirectory"));
      EXPECT_EQ(pfs_->Write(env, dir, 0, "abc", 3).status(), base::Status::kInvalidArgument);
      EXPECT_EQ(pfs_->SetSize(env, dir, 0), base::Status::kInvalidArgument);
      // A directory reads as no file data: not its on-disk entries, and not
      // an empty file.
      char buf[64];
      EXPECT_EQ(pfs_->Read(env, dir, 0, buf, sizeof(buf)).status(),
                base::Status::kInvalidArgument);
    }
    EXPECT_EQ(pfs_->free_blocks(), free_before) << KindName(GetParam());
    EXPECT_EQ(names(pfs_->root()), root_names) << KindName(GetParam());
    EXPECT_EQ(names(*sub), sub_names) << KindName(GetParam());
  });
}

// "." and ".." name a directory and its parent, so no file system stores
// them: a create or a rename to either answers kInvalidArgument, and the
// listing does not change.
TEST_P(PfsContractTest, DotNamesAreInvalidArgument) {
  RunInThread([&](mk::Env& env) {
    ASSERT_EQ(pfs_->Format(env), base::Status::kOk);
    const NodeId root = pfs_->root();
    ASSERT_TRUE(pfs_->Create(env, root, "KEEP.DAT", false).ok());
    for (const std::string dot : {".", ".."}) {
      SCOPED_TRACE(KindName(GetParam()) + " '" + dot + "'");
      EXPECT_EQ(pfs_->Create(env, root, dot, false).status(), base::Status::kInvalidArgument);
      EXPECT_EQ(pfs_->Create(env, root, dot, true).status(), base::Status::kInvalidArgument);
      EXPECT_EQ(pfs_->Rename(env, root, "KEEP.DAT", root, dot), base::Status::kInvalidArgument);
    }
    auto entries = pfs_->ReadDir(env, root);
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u) << KindName(GetParam());
    EXPECT_EQ((*entries)[0].name, "KEEP.DAT");
  });
}

INSTANTIATE_TEST_SUITE_P(AllFileSystems, PfsContractTest,
                         ::testing::Values(PfsKind::kFat, PfsKind::kHpfs, PfsKind::kJfs),
                         [](const ::testing::TestParamInfo<PfsKind>& info) {
                           return KindName(info.param);
                         });

}  // namespace
}  // namespace svc
