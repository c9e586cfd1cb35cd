// Property-based VM/mmap harness: seeded random sequences of POSIX-level
// operations — write/read/lseek through a file descriptor, mmap/munmap,
// mapped loads and stores, msync — run against a UnixProcess with a
// live file server, checked after every step against an in-memory reference
// model of the POSIX contract this system implements:
//
//   - a clean mapped page always shows the CURRENT file bytes (server-side
//     invalidation keeps mapped views coherent with writes), zeros past EOF;
//   - a dirty mapped page shows the mapped stores, immune to fd writes,
//     until msync replays the whole page (clipped to the file size) into the
//     file and cleans it;
//   - munmap without msync discards dirty pages.
//
// Any divergence reports the seed and the full op trace, which replays the
// failure deterministically (the whole system is a deterministic simulation).
//
// The seed sweep: WPOS_PROPS_SEED selects a single seed for CI soaks;
// without it, a fixed batch of seeds runs. The cache dimension is a test
// parameter — the contract must hold with the client FS cache on and off.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/pers/unixp/unix.h"
#include "tests/mk/kernel_test_fixture.h"
#include "tests/props/seeds.h"

namespace pers {
namespace {

constexpr uint64_t kMaxFileBytes = 3 * hw::kPageSize + 500;
constexpr int kOpsPerSeed = 160;

// The reference model: what a correct implementation must show through every
// observation channel.
struct Model {
  std::vector<uint8_t> file;  // authoritative byte content, as read() sees it
  uint64_t fd_offset = 0;
  bool mapped = false;
  uint64_t map_len = 0;  // page-rounded view length, fixed at mmap time
  // Dirty page overrides: page index -> full page of expected mapped bytes.
  std::map<uint64_t, std::vector<uint8_t>> dirty;

  uint8_t MappedByte(uint64_t i) const {
    const uint64_t page = i >> hw::kPageShift;
    auto it = dirty.find(page);
    if (it != dirty.end()) {
      return it->second[i & hw::kPageMask];
    }
    return i < file.size() ? file[i] : 0;
  }

  // A store materializes the page's expected bytes from the current file
  // (a clean page is always current) before applying the override.
  void Store(uint64_t off, uint8_t byte) {
    const uint64_t page = off >> hw::kPageShift;
    auto it = dirty.find(page);
    if (it == dirty.end()) {
      std::vector<uint8_t> bytes(hw::kPageSize, 0);
      const uint64_t base = page << hw::kPageShift;
      for (uint64_t j = 0; j < hw::kPageSize; ++j) {
        bytes[j] = base + j < file.size() ? file[base + j] : 0;
      }
      it = dirty.emplace(page, std::move(bytes)).first;
    }
    it->second[off & hw::kPageMask] = byte;
  }

  // msync: every dirty page replays wholesale into the file, clipped to the
  // current size (mmap never extends a file), then the page is clean.
  void Msync() {
    for (const auto& [page, bytes] : dirty) {
      const uint64_t base = page << hw::kPageShift;
      for (uint64_t j = 0; j < hw::kPageSize; ++j) {
        if (base + j < file.size()) {
          file[base + j] = bytes[j];
        }
      }
    }
    dirty.clear();
  }

  void Write(uint64_t off, const std::vector<uint8_t>& data) {
    if (off + data.size() > file.size()) {
      file.resize(off + data.size(), 0);
    }
    std::memcpy(file.data() + off, data.data(), data.size());
  }
};

class VmMmapPropsTest : public mk::KernelTest,
                        public ::testing::WithParamInterface<bool> {
 protected:
  VmMmapPropsTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    fs_ = std::make_unique<svc::FileServer>(kernel_, kernel_.CreateTask("file-server"));
    fs_->EnableMapping();
    EXPECT_EQ(fs_->AddVolume("/", store_.get(), svc::PfsKind::kJfs), base::Status::kOk);
    fs_->StartMkfs();
  }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<svc::FileServer> fs_;
};

// One randomized campaign against one file. Returns via gtest assertions;
// every assertion carries the seed and the op trace for replay.
void RunCampaign(mk::Env& env, mk::Kernel& kernel, UnixProcess* proc, uint64_t seed,
                 const std::string& path) {
  base::Rng rng(seed);
  Model model;
  std::ostringstream trace;
  hw::VirtAddr map_addr = 0;

  auto fd = proc->Open(env, path, kOCreat | kORdWr);
  ASSERT_TRUE(fd.ok()) << "seed=" << seed;

  for (int op = 0; op < kOpsPerSeed; ++op) {
    // Weighted op pick. Mapped ops only apply while a mapping is live.
    const uint64_t roll = rng.NextBelow(97);
    if (roll < 22) {
      // -- write at the fd offset (bounded so the file stays mappable) -----
      if (model.fd_offset >= kMaxFileBytes) {
        trace << op << ": skip-write (offset at cap)\n";
        continue;
      }
      const uint32_t len = static_cast<uint32_t>(
          rng.NextInRange(1, std::min<uint64_t>(256, kMaxFileBytes - model.fd_offset)));
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      trace << op << ": write off=" << model.fd_offset << " len=" << len << "\n";
      auto wrote = proc->Write(env, *fd, data.data(), len);
      ASSERT_TRUE(wrote.ok()) << "seed=" << seed << "\n" << trace.str();
      ASSERT_EQ(*wrote, len) << "seed=" << seed << "\n" << trace.str();
      model.Write(model.fd_offset, data);
      model.fd_offset += len;
    } else if (roll < 44) {
      // -- read at the fd offset, differential against the model ----------
      const uint32_t want = static_cast<uint32_t>(rng.NextInRange(1, 300));
      trace << op << ": read off=" << model.fd_offset << " len=" << want << "\n";
      std::vector<uint8_t> got(want, 0xAB);
      auto n = proc->Read(env, *fd, got.data(), want);
      ASSERT_TRUE(n.ok()) << "seed=" << seed << "\n" << trace.str();
      const uint64_t start = std::min<uint64_t>(model.fd_offset, model.file.size());
      const uint64_t expect_n = std::min<uint64_t>(want, model.file.size() - start);
      ASSERT_EQ(*n, expect_n) << "seed=" << seed << "\n" << trace.str();
      for (uint64_t j = 0; j < expect_n; ++j) {
        ASSERT_EQ(got[j], model.file[start + j])
            << "read diverges at file offset " << start + j << " seed=" << seed << "\n"
            << trace.str();
      }
      model.fd_offset += expect_n;
    } else if (roll < 52) {
      // -- lseek (SEEK_SET) ------------------------------------------------
      const uint64_t to = rng.NextBelow(kMaxFileBytes);
      trace << op << ": lseek " << to << "\n";
      auto pos = proc->Lseek(env, *fd, static_cast<int64_t>(to), 0);
      ASSERT_TRUE(pos.ok()) << "seed=" << seed << "\n" << trace.str();
      ASSERT_EQ(*pos, to) << "seed=" << seed << "\n" << trace.str();
      model.fd_offset = to;
    } else if (roll < 58) {
      // -- mmap (shared) ---------------------------------------------------
      if (model.mapped || model.file.empty()) {
        trace << op << ": skip-mmap\n";
        continue;
      }
      trace << op << ": mmap len=" << model.file.size() << "\n";
      auto addr = proc->Mmap(env, *fd, model.file.size(), /*shared=*/true);
      ASSERT_TRUE(addr.ok()) << "seed=" << seed << "\n" << trace.str();
      map_addr = *addr;
      model.mapped = true;
      model.map_len = hw::PageRound(model.file.size());
    } else if (roll < 62) {
      // -- munmap: dirty never-synced pages are discarded -------------------
      if (!model.mapped) {
        trace << op << ": skip-munmap\n";
        continue;
      }
      trace << op << ": munmap\n";
      ASSERT_EQ(proc->Munmap(env, map_addr), base::Status::kOk)
          << "seed=" << seed << "\n" << trace.str();
      model.mapped = false;
      model.map_len = 0;
      model.dirty.clear();
    } else if (roll < 70) {
      // -- msync: publish dirty pages to the file ---------------------------
      if (!model.mapped) {
        trace << op << ": skip-msync\n";
        continue;
      }
      trace << op << ": msync\n";
      ASSERT_EQ(proc->Msync(env, map_addr, model.map_len), base::Status::kOk)
          << "seed=" << seed << "\n" << trace.str();
      model.Msync();
    } else if (roll < 85) {
      // -- mapped load, differential against the model ----------------------
      if (!model.mapped) {
        trace << op << ": skip-mload\n";
        continue;
      }
      const uint64_t off = rng.NextBelow(model.map_len);
      const uint64_t len = rng.NextInRange(1, std::min<uint64_t>(64, model.map_len - off));
      trace << op << ": mload off=" << off << " len=" << len << "\n";
      std::vector<uint8_t> got(len, 0xCD);
      ASSERT_EQ(kernel.CopyIn(*proc->task(), map_addr + off, got.data(), len),
                base::Status::kOk)
          << "seed=" << seed << "\n" << trace.str();
      for (uint64_t j = 0; j < len; ++j) {
        ASSERT_EQ(got[j], model.MappedByte(off + j))
            << "mapped load diverges at mapping offset " << off + j << " seed=" << seed << "\n"
            << trace.str();
      }
    } else {
      // -- mapped store (kept inside the file so msync clipping stays out
      //    of the observable-divergence business) --------------------------
      if (!model.mapped || model.file.empty()) {
        trace << op << ": skip-mstore\n";
        continue;
      }
      const uint64_t bound = std::min<uint64_t>(model.map_len, model.file.size());
      const uint64_t off = rng.NextBelow(bound);
      const uint64_t len = rng.NextInRange(1, std::min<uint64_t>(16, bound - off));
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      trace << op << ": mstore off=" << off << " len=" << len << "\n";
      ASSERT_EQ(kernel.CopyOut(*proc->task(), map_addr + off, data.data(), len),
                base::Status::kOk)
          << "seed=" << seed << "\n" << trace.str();
      for (uint64_t j = 0; j < len; ++j) {
        model.Store(off + j, data[j]);
      }
    }
  }

  // Campaign epilogue: msync and compare the whole file both ways.
  if (model.mapped) {
    ASSERT_EQ(proc->Msync(env, map_addr, model.map_len), base::Status::kOk) << "seed=" << seed;
    model.Msync();
    std::vector<uint8_t> via_map(model.map_len, 0);
    ASSERT_EQ(kernel.CopyIn(*proc->task(), map_addr, via_map.data(), via_map.size()),
              base::Status::kOk)
        << "seed=" << seed;
    for (uint64_t j = 0; j < model.map_len; ++j) {
      ASSERT_EQ(via_map[j], model.MappedByte(j))
          << "final mapped sweep diverges at " << j << " seed=" << seed << "\n" << trace.str();
    }
    ASSERT_EQ(proc->Munmap(env, map_addr), base::Status::kOk) << "seed=" << seed;
  }
  if (!model.file.empty()) {
    ASSERT_TRUE(proc->Lseek(env, *fd, 0, 0).ok()) << "seed=" << seed;
    std::vector<uint8_t> whole(model.file.size(), 0);
    auto n = proc->Read(env, *fd, whole.data(), static_cast<uint32_t>(whole.size()));
    ASSERT_TRUE(n.ok()) << "seed=" << seed;
    ASSERT_EQ(*n, model.file.size()) << "seed=" << seed;
    EXPECT_EQ(whole, model.file) << "final file sweep diverges, seed=" << seed << "\n"
                                 << trace.str();
  }
  ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk) << "seed=" << seed;
}

TEST_P(VmMmapPropsTest, RandomOpSequencesMatchTheReferenceModel) {
  UnixPersonality unix_pers(kernel_, *fs_);
  if (GetParam()) {
    unix_pers.EnableFsCache();
  }
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("prop", [&](mk::Env& env) {
    for (uint64_t seed : props::SeedsUnderTest()) {
      RunCampaign(env, kernel_, proc, seed, "/prop-" + std::to_string(seed) + ".dat");
      if (::testing::Test::HasFatalFailure()) {
        break;
      }
    }
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

INSTANTIATE_TEST_SUITE_P(CacheOffAndOn, VmMmapPropsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FsCacheOn" : "FsCacheOff";
                         });

}  // namespace
}  // namespace pers
