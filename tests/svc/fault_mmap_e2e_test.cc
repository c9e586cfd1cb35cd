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
// Every assertion here is seed-independent.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "tests/svc/supervised_fs_fixture.h"

namespace svc {
namespace {

constexpr uint64_t kFilePages = 4;
constexpr uint64_t kFileSize = kFilePages * hw::kPageSize;

class FaultMmapE2eTest : public SupervisedFsTest {
 protected:
  // Every generation exports memory objects: a respawn must be mappable so
  // a surviving object can adopt its backing.
  FaultMmapE2eTest() {
    Start({.max_restarts = 8}, [](FileServer& server) { server.EnableMapping(); });
  }
};

TEST_F(FaultMmapE2eTest, CrashWithLiveMappingRecoversCleanAndDirtyPages) {
  const uint64_t seed = CampaignSeed();
  kernel_.faults().Enable(seed);

  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    ASSERT_TRUE(RegisterFs(env).ok());

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

    StopAll();
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
    ASSERT_TRUE(RegisterFs(env).ok());

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
    StopAll();
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
