// Crash/restart campaign with live memory mappings: the file server dies
// while a client has its file mmap'd. The recovery contract under test —
//
//   - clean mapped pages are dropped at death (the pager that produced them
//     is gone) and REFAULT against the respawned instance's fresh memory
//     object after mk::Kernel::AdoptPagerBacking re-points the surviving
//     VmObject at it;
//   - dirty mapped pages SURVIVE the crash (the client's copy is the only
//     copy) and reach the disk afterwards by msync-style replay through the
//     robust FsClient, which re-opens the file on the new instance
//     transparently.
//
// The seed comes from WPOS_FAULT_SEED (default 1) so the CI fault-soak can
// sweep campaigns; every assertion here is seed-independent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/mks/restart/restart_manager.h"
#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/file_server.h"
#include "src/svc/fs/inode_fs.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

constexpr char kFsName[] = "/svc/fs";
constexpr uint64_t kFilePages = 4;
constexpr uint64_t kFileSize = kFilePages * hw::kPageSize;

uint64_t CampaignSeed() {
  const char* env = std::getenv("WPOS_FAULT_SEED");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  return std::strtoull(env, nullptr, 10);
}

class FaultMmapE2eTest : public mk::KernelTest {
 protected:
  FaultMmapE2eTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 256 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk_, 10'000);
    cache_ = std::make_unique<BlockCache>(kernel_, store_.get(), 1024);
    fs_ = std::make_unique<HpfsFs>(kernel_, cache_.get(), 65536);

    ns_task_ = kernel_.CreateTask("mks-naming");
    ns_ = std::make_unique<mks::NameServer>(kernel_, ns_task_);
    mgr_task_ = kernel_.CreateTask("mks-restart");
    mks::RestartPolicy policy;
    policy.max_restarts = 8;
    mgr_ = std::make_unique<mks::RestartManager>(kernel_, mgr_task_, ns_->GrantTo(*mgr_task_),
                                                 policy);
    client_task_ = kernel_.CreateTask("client");
    ns_for_client_ = ns_->GrantTo(*client_task_);

    mk::Task* gen0 = SpawnFs();
    kernel_.CreateThread(gen0, "mkfs", [this](mk::Env& env) {
      ASSERT_EQ(fs_->Format(env), base::Status::kOk);
    });
    mgr_->Supervise(kFsName, gen0, [this](mk::Env&) {
      mk::Task* task = SpawnFs();
      auto right =
          kernel_.MakeSendRight(*task, servers_.back()->receive_port(), *mgr_task_);
      EXPECT_TRUE(right.ok());
      return mks::RestartManager::Respawned{task, right.ok() ? *right : mk::kNullPort};
    });
  }

  // Every generation exports memory objects: a respawn must be mappable so
  // a surviving object can adopt its backing.
  mk::Task* SpawnFs() {
    const uint64_t gen = static_cast<uint64_t>(servers_.size());
    mk::Task* task = kernel_.CreateTask("file-server-g" + std::to_string(gen));
    auto server = std::make_unique<FileServer>(kernel_, task, gen * 1'000'000 + 1);
    server->EnableMapping();
    EXPECT_EQ(server->AddMount("/", fs_.get()), base::Status::kOk);
    servers_.push_back(std::move(server));
    return task;
  }

  hw::Disk* disk_;
  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<InodeFs> fs_;
  mk::Task* ns_task_;
  std::unique_ptr<mks::NameServer> ns_;
  mk::Task* mgr_task_;
  std::unique_ptr<mks::RestartManager> mgr_;
  mk::Task* client_task_;
  mk::PortName ns_for_client_ = mk::kNullPort;
  std::vector<std::unique_ptr<FileServer>> servers_;
};

TEST_F(FaultMmapE2eTest, CrashWithLiveMappingRecoversCleanAndDirtyPages) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    mks::NameClient nc(ns_for_client_);
    auto right =
        kernel_.MakeSendRight(*servers_[0]->task(), servers_[0]->receive_port(), *client_task_);
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(nc.Register(env, kFsName, *right), base::Status::kOk);

    FsClient session(ns_for_client_, kFsName);
    // Death notices wired the way a mapping-aware client runtime would: drop
    // the session's cached state AND every clean mapped page — the pager that
    // produced those pages died with its instance. Dirty pages are kept: the
    // client holds the only copy.
    std::shared_ptr<mk::VmObject> mapped;
    mgr_->AddDeathListener([&](const std::string& name) {
      if (name != kFsName) {
        return;
      }
      session.OnServerDeath();
      if (mapped != nullptr) {
        kernel_.VmObjectInvalidate(mapped.get(), 0, kFilePages, /*clean_only=*/true);
      }
    });

    auto handle = session.Open(env, "/mapped.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok()) << base::StatusName(handle.status());
    std::vector<uint8_t> data(kFileSize);
    for (uint64_t i = 0; i < kFileSize; ++i) {
      data[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    auto wrote = session.Write(env, *handle, 0, data.data(), kFileSize);
    ASSERT_TRUE(wrote.ok());
    ASSERT_EQ(*wrote, kFileSize);

    auto m = session.MapObject(env, *handle);
    ASSERT_TRUE(m.ok()) << base::StatusName(m.status());
    EXPECT_EQ(m->size, kFileSize);
    mapped = kernel_.LookupPagedObject(m->object_id);
    ASSERT_NE(mapped, nullptr);
    auto base_addr = kernel_.VmMapObject(*client_task_, mapped, 0, mapped->size(),
                                         mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base_addr.ok());

    // Fault page 0 in clean; dirty page 2 with a store only the client holds.
    uint8_t probe = 0;
    ASSERT_EQ(kernel_.CopyIn(*client_task_, *base_addr, &probe, 1), base::Status::kOk);
    EXPECT_EQ(probe, data[0]);
    const char tag[] = "only-copy-is-here";
    ASSERT_EQ(kernel_.CopyOut(*client_task_, *base_addr + 2 * hw::kPageSize, tag, sizeof(tag)),
              base::Status::kOk);
    EXPECT_EQ(mapped->dirty_pages(), 1u);

    // Kill the serving instance on its next main-port request. The pager
    // loop has no fault point, so the crash lands on the session op below.
    kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                         mk::fault::FaultMode::kCrashTask, 100, /*max_fires=*/1);
    auto attr = session.Stat(env, *handle);
    ASSERT_TRUE(attr.ok()) << base::StatusName(attr.status());
    kernel_.faults().DisarmAll();
    ASSERT_EQ(mgr_->total_restarts(), 1u);

    // The crash dropped the clean pages; the dirty one survived untouched.
    EXPECT_FALSE(mapped->HasPage(0));
    EXPECT_TRUE(mapped->HasPage(2));
    EXPECT_TRUE(mapped->IsDirty(2));

    // Re-export from the respawn (session re-opens by path under the hood)
    // and re-point the surviving object at the fresh backing.
    auto fresh = session.MapObject(env, *handle);
    ASSERT_TRUE(fresh.ok()) << base::StatusName(fresh.status());
    EXPECT_NE(fresh->object_id, m->object_id) << "a respawn exports a new object";
    ASSERT_EQ(kernel_.AdoptPagerBacking(mapped, fresh->object_id), base::Status::kOk);

    // Clean pages refault against the new generation: page 0 reads the bytes
    // that survived on the disk.
    ASSERT_EQ(kernel_.CopyIn(*client_task_, *base_addr, &probe, 1), base::Status::kOk);
    EXPECT_EQ(probe, data[0]);
    // The dirty page still shows the client's store.
    char back[sizeof(tag)] = {};
    ASSERT_EQ(kernel_.CopyIn(*client_task_, *base_addr + 2 * hw::kPageSize, back, sizeof(tag)),
              base::Status::kOk);
    EXPECT_STREQ(back, tag);

    // msync-style replay: push every dirty page through the robust session
    // (crash-transparent), then mark clean so the store is published.
    for (uint64_t page : mapped->DirtyPages(0, kFilePages)) {
      std::vector<uint8_t> buf(hw::kPageSize);
      ASSERT_EQ(kernel_.CopyIn(*client_task_, *base_addr + page * hw::kPageSize, buf.data(),
                               buf.size()),
                base::Status::kOk);
      auto w = session.Write(env, *handle, page * hw::kPageSize, buf.data(),
                             static_cast<uint32_t>(buf.size()));
      ASSERT_TRUE(w.ok()) << base::StatusName(w.status());
      kernel_.VmObjectMarkClean(mapped.get(), page, 1);
    }
    EXPECT_EQ(mapped->dirty_pages(), 0u);
    // The replayed store is now visible through plain file reads.
    std::memset(back, 0, sizeof(back));
    auto got = session.Read(env, *handle, 2 * hw::kPageSize, back, sizeof(tag));
    ASSERT_TRUE(got.ok());
    EXPECT_STREQ(back, tag);

    ASSERT_EQ(kernel_.VmDeallocate(*client_task_, *base_addr, mapped->size()),
              base::Status::kOk);
    mapped.reset();
    ASSERT_EQ(kernel_.ReleasePagedObject(fresh->object_id), base::Status::kOk);
    ASSERT_EQ(session.Close(env, *handle), base::Status::kOk);

    servers_.back()->Stop();
    mgr_->Stop();
    ns_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(mgr_->total_restarts(), 1u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Randomized campaign over the soak seeds: crashes fire at 10% of main-port
// handler entries while the client interleaves file writes with mapped-page
// differential reads. A mapped read that trips over a dead pager generation
// re-exports and adopts, exactly like a real fault-handler runtime would;
// every observation must still match what read() sees.
TEST_F(FaultMmapE2eTest, MappedReadsStayCoherentAcrossRandomCrashes) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);
  kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                       mk::fault::FaultMode::kCrashTask, 10, /*max_fires=*/2);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    mks::NameClient nc(ns_for_client_);
    auto right =
        kernel_.MakeSendRight(*servers_[0]->task(), servers_[0]->receive_port(), *client_task_);
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(nc.Register(env, kFsName, *right), base::Status::kOk);

    FsClient session(ns_for_client_, kFsName);
    std::shared_ptr<mk::VmObject> mapped;
    mgr_->AddDeathListener([&](const std::string& name) {
      if (name != kFsName) {
        return;
      }
      session.OnServerDeath();
      if (mapped != nullptr) {
        kernel_.VmObjectInvalidate(mapped.get(), 0, kFilePages, /*clean_only=*/true);
      }
    });

    auto handle = session.Open(env, "/soak.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok()) << base::StatusName(handle.status());
    // Size the file up front so the exported object covers every record.
    std::vector<uint8_t> zero(kFileSize, 0);
    ASSERT_TRUE(session.Write(env, *handle, 0, zero.data(), kFileSize).ok());
    auto m = session.MapObject(env, *handle);
    ASSERT_TRUE(m.ok()) << base::StatusName(m.status());
    mapped = kernel_.LookupPagedObject(m->object_id);
    ASSERT_NE(mapped, nullptr);
    auto base_addr = kernel_.VmMapObject(*client_task_, mapped, 0, mapped->size(),
                                         mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base_addr.ok());

    // Mapped read that recovers from a dead pager generation by re-export +
    // adopt; bounded retries (max_fires above bounds the crash count).
    auto mapped_read = [&](uint64_t off, void* out, uint64_t len) -> base::Status {
      base::Status st = base::Status::kInternal;
      for (int attempt = 0; attempt < 4; ++attempt) {
        st = kernel_.CopyIn(*client_task_, *base_addr + off, out, len);
        if (st == base::Status::kOk) {
          return st;
        }
        auto re = session.MapObject(env, *handle);
        if (!re.ok()) {
          return re.status();
        }
        const base::Status ad = kernel_.AdoptPagerBacking(mapped, re->object_id);
        if (ad != base::Status::kOk) {
          return ad;
        }
      }
      return st;
    };

    for (uint32_t i = 0; i < 30; ++i) {
      char record[64];
      std::memset(record, 0, sizeof(record));
      std::snprintf(record, sizeof(record), "record %u of the mapped soak", i);
      const uint64_t off = (i * sizeof(record)) % (kFileSize - sizeof(record));
      auto wrote = session.Write(env, *handle, off, record, sizeof(record));
      ASSERT_TRUE(wrote.ok()) << "write " << i << ": " << base::StatusName(wrote.status());
      // Differential check: the mapped view and read() must agree on the
      // record just written, whatever crashed in between.
      char via_map[64] = {};
      ASSERT_EQ(mapped_read(off, via_map, sizeof(via_map)), base::Status::kOk) << "iter " << i;
      char via_read[64] = {};
      auto got = session.Read(env, *handle, off, via_read, sizeof(via_read));
      ASSERT_TRUE(got.ok()) << "read " << i << ": " << base::StatusName(got.status());
      EXPECT_EQ(std::memcmp(via_map, via_read, sizeof(via_map)), 0)
          << "mapped and read() views diverge at iter " << i;
      EXPECT_STREQ(via_map, record);
    }
    ASSERT_EQ(session.Close(env, *handle), base::Status::kOk);
    ASSERT_EQ(kernel_.VmDeallocate(*client_task_, *base_addr, mapped->size()),
              base::Status::kOk);
    mapped.reset();

    kernel_.faults().DisarmAll();
    servers_.back()->Stop();
    mgr_->Stop();
    ns_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);

  const uint64_t crashes =
      kernel_.faults().fires(mk::fault::FaultPoint::kServerHandlerEntry);
  EXPECT_EQ(mgr_->total_restarts(), crashes);
  EXPECT_FALSE(mgr_->degraded(kFsName));
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace svc
