// File-backed memory objects end to end at the service level: the file
// server's pager port (FileServer::EnableMapping) exports a VmObject per
// mapped file, the kernel fault path pages it in with readahead, and the
// write paths keep mapped views and read()/write() views coherent.
//
// The differential tests here are deliberate byte-for-byte comparisons:
// every range observed through a mapping must equal the same range observed
// through FsClient::Read, across page boundaries, at EOF, and in the short
// final page — with the client cache off and on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/mks/pager/default_pager.h"
#include "src/svc/fs/file_server.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

class FsMmapTest : public mk::KernelTest {
 protected:
  FsMmapTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    fs_ = std::make_unique<FileServer>(kernel_, kernel_.CreateTask("file-server"));
    fs_->EnableMapping();
    EXPECT_EQ(fs_->AddVolume("/", store_.get(), PfsKind::kJfs), base::Status::kOk);
    fs_->StartMkfs();
    client_task_ = kernel_.CreateTask("client");
  }

  // Deterministic content: byte i of the file is a function of i alone.
  static uint8_t PatternByte(uint64_t i) { return static_cast<uint8_t>(i * 131 + 17); }

  void WritePattern(mk::Env& env, FsClient& fs, uint64_t handle, uint64_t size) {
    std::vector<uint8_t> data(size);
    for (uint64_t i = 0; i < size; ++i) {
      data[i] = PatternByte(i);
    }
    auto wrote = fs.Write(env, handle, 0, data.data(), static_cast<uint32_t>(size));
    ASSERT_TRUE(wrote.ok());
    ASSERT_EQ(*wrote, size);
  }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<FileServer> fs_;
  mk::Task* client_task_;
};

// Size chosen so the file spans two full pages plus a short final page:
// boundary crossings and the EOF tail are all inside the comparison.
constexpr uint64_t kOddSize = 2 * hw::kPageSize + 1337;

void CompareMappedToRead(mk::Env& env, mk::Kernel& kernel, mk::Task& task, FsClient& fs,
                         uint64_t handle, hw::VirtAddr base, uint64_t file_size) {
  // Ranges: within a page, crossing each boundary, the EOF tail, whole file.
  const std::pair<uint64_t, uint64_t> ranges[] = {
      {0, 64},
      {hw::kPageSize - 32, 64},            // first boundary
      {2 * hw::kPageSize - 1, 2},          // second boundary
      {2 * hw::kPageSize, 1337},           // entire short final page
      {file_size - 5, 5},                  // EOF tail
      {0, file_size},                      // everything
  };
  for (const auto& [off, len] : ranges) {
    std::vector<uint8_t> via_map(len, 0xAA);
    std::vector<uint8_t> via_read(len, 0x55);
    ASSERT_EQ(kernel.CopyIn(task, base + off, via_map.data(), len), base::Status::kOk);
    auto got = fs.Read(env, handle, off, via_read.data(), static_cast<uint32_t>(len));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, len);
    EXPECT_EQ(via_map, via_read) << "mapped and read() bytes diverge at offset " << off
                                 << " len " << len;
  }
  // Past EOF but inside the mapping: read() has no bytes there, the mapping
  // must show zeros (never stale or junk bytes).
  uint8_t past_eof[16];
  ASSERT_EQ(kernel.CopyIn(task, base + file_size, past_eof, sizeof(past_eof)), base::Status::kOk);
  for (uint8_t b : past_eof) {
    EXPECT_EQ(b, 0) << "bytes past EOF must map in as zeros";
  }
}

class FsMmapDifferentialTest : public FsMmapTest,
                               public ::testing::WithParamInterface<bool> {};

TEST_P(FsMmapDifferentialTest, MappedBytesMatchReadAcrossBoundariesAndEof) {
  const bool cache_on = GetParam();
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    FsClient fs(fs_->GrantTo(*client_task_));
    if (cache_on) {
      fs.EnableCache();
    }
    auto handle = fs.Open(env, "/map.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    WritePattern(env, fs, *handle, kOddSize);
    auto mapping = fs.MapObject(env, *handle);
    ASSERT_TRUE(mapping.ok());
    EXPECT_EQ(mapping->size, kOddSize);
    auto object = kernel_.LookupPagedObject(mapping->object_id);
    ASSERT_NE(object, nullptr);
    auto base = kernel_.VmMapObject(*client_task_, object, 0, object->size(),
                                    mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base.ok());
    CompareMappedToRead(env, kernel_, *client_task_, fs, *handle, *base, kOddSize);
    ASSERT_EQ(kernel_.VmDeallocate(*client_task_, *base, object->size()), base::Status::kOk);
    auto remaining = fs.UnmapObject(env, mapping->object_id);
    ASSERT_TRUE(remaining.ok());
    EXPECT_EQ(*remaining, 0u);
    ASSERT_EQ(kernel_.ReleasePagedObject(mapping->object_id), base::Status::kOk);
    EXPECT_EQ(fs_->mapped_objects(), 0u);
    ASSERT_EQ(fs.Close(env, *handle), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

INSTANTIATE_TEST_SUITE_P(CacheOffAndOn, FsMmapDifferentialTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FsCacheOn" : "FsCacheOff";
                         });

TEST_F(FsMmapTest, MapObjectIsSharedPerNodeAndRefCounted) {
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    FsClient fs(fs_->GrantTo(*client_task_));
    auto h1 = fs.Open(env, "/shared.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(h1.ok());
    WritePattern(env, fs, *h1, hw::kPageSize);
    auto h2 = fs.Open(env, "/shared.dat", kFsWrite);
    ASSERT_TRUE(h2.ok());
    // Two opens of one node share one memory object — that sharing is what
    // makes two mappings of the same file coherent with each other.
    auto m1 = fs.MapObject(env, *h1);
    auto m2 = fs.MapObject(env, *h2);
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    EXPECT_EQ(m1->object_id, m2->object_id);
    EXPECT_EQ(fs_->mapped_objects(), 1u);
    auto r1 = fs.UnmapObject(env, m1->object_id);
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(*r1, 1u);
    auto r2 = fs.UnmapObject(env, m1->object_id);
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(*r2, 0u);
    // The server's bookkeeping lives until kObjectTerminate, which the
    // kernel only sends once the object was actually mapped (the setup
    // handshake ran). Map it, release, and the server entry goes away.
    auto object = kernel_.LookupPagedObject(m1->object_id);
    ASSERT_NE(object, nullptr);
    auto base = kernel_.VmMapObject(*client_task_, object, 0, object->size(),
                                    mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base.ok());
    ASSERT_EQ(kernel_.VmDeallocate(*client_task_, *base, object->size()), base::Status::kOk);
    ASSERT_EQ(kernel_.ReleasePagedObject(m1->object_id), base::Status::kOk);
    EXPECT_EQ(fs_->mapped_objects(), 0u);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// Coherence, write() -> mapped read: a file write through the server drops
// overlapping *clean* mapped pages (they refault with the new bytes) but
// must never clobber a *dirty* mapped page — msync owns that page's fate.
TEST_F(FsMmapTest, FileWriteInvalidatesCleanButNotDirtyMappedPages) {
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    FsClient fs(fs_->GrantTo(*client_task_));
    auto handle = fs.Open(env, "/coherent.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    WritePattern(env, fs, *handle, 2 * hw::kPageSize);
    auto mapping = fs.MapObject(env, *handle);
    ASSERT_TRUE(mapping.ok());
    auto object = kernel_.LookupPagedObject(mapping->object_id);
    ASSERT_NE(object, nullptr);
    auto base = kernel_.VmMapObject(*client_task_, object, 0, object->size(),
                                    mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base.ok());
    // Fault page 0 in clean, dirty page 1 with a mapped store.
    uint8_t probe = 0;
    ASSERT_EQ(kernel_.CopyIn(*client_task_, *base, &probe, 1), base::Status::kOk);
    EXPECT_EQ(probe, PatternByte(0));
    const uint8_t store_byte = 0x5C;
    ASSERT_EQ(kernel_.CopyOut(*client_task_, *base + hw::kPageSize, &store_byte, 1),
              base::Status::kOk);
    EXPECT_EQ(object->dirty_pages(), 1u);
    // Overwrite both pages through the file API.
    std::vector<uint8_t> fresh(2 * hw::kPageSize, 0xEE);
    auto wrote = fs.Write(env, *handle, 0, fresh.data(), static_cast<uint32_t>(fresh.size()));
    ASSERT_TRUE(wrote.ok());
    // Page 0 was clean: it refaults and shows the new bytes.
    ASSERT_EQ(kernel_.CopyIn(*client_task_, *base, &probe, 1), base::Status::kOk);
    EXPECT_EQ(probe, 0xEE);
    // Page 1 was dirty: the mapped store survives the file write.
    ASSERT_EQ(kernel_.CopyIn(*client_task_, *base + hw::kPageSize, &probe, 1), base::Status::kOk);
    EXPECT_EQ(probe, 0x5C);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// Coherence, mapped store -> read(): the kernel-level msync (VmMsync) pushes
// dirty pages through the pager's kDataWrite and the file then reads back
// the stored bytes; re-dirtying after mark-clean is caught by the
// write-protect fault and a second msync publishes the newer bytes.
TEST_F(FsMmapTest, KernelMsyncPublishesDirtyPagesToTheFile) {
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    FsClient fs(fs_->GrantTo(*client_task_));
    auto handle = fs.Open(env, "/msync.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    WritePattern(env, fs, *handle, 2 * hw::kPageSize);
    auto mapping = fs.MapObject(env, *handle);
    ASSERT_TRUE(mapping.ok());
    auto object = kernel_.LookupPagedObject(mapping->object_id);
    ASSERT_NE(object, nullptr);
    auto base = kernel_.VmMapObject(*client_task_, object, 0, object->size(),
                                    mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base.ok());
    const char tag[] = "mapped-store";
    ASSERT_EQ(kernel_.CopyOut(*client_task_, *base + 100, tag, sizeof(tag)), base::Status::kOk);
    EXPECT_EQ(object->dirty_pages(), 1u);
    ASSERT_EQ(kernel_.VmMsync(*client_task_, *base, object->size()), base::Status::kOk);
    EXPECT_EQ(object->dirty_pages(), 0u);
    EXPECT_GE(fs_->pageouts(), 1u);
    char file_bytes[sizeof(tag)] = {};
    auto got = fs.Read(env, *handle, 100, file_bytes, sizeof(tag));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::memcmp(file_bytes, tag, sizeof(tag)), 0);
    // Store again after mark-clean: the page must re-dirty via a fresh
    // write fault, and a second msync must publish the newer bytes.
    const char tag2[] = "second-store";
    ASSERT_EQ(kernel_.CopyOut(*client_task_, *base + 100, tag2, sizeof(tag2)), base::Status::kOk);
    EXPECT_EQ(object->dirty_pages(), 1u);
    ASSERT_EQ(kernel_.VmMsync(*client_task_, *base, object->size()), base::Status::kOk);
    got = fs.Read(env, *handle, 100, file_bytes, sizeof(tag2));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::memcmp(file_bytes, tag2, sizeof(tag2)), 0);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// The point of the whole machinery: sequential mapped reads amortize one
// pager RPC over a readahead batch, where read() pays at least one RPC per
// uncached call.
TEST_F(FsMmapTest, MappedSequentialReadsUseFewerRpcsThanPerPageReads) {
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    FsClient fs(fs_->GrantTo(*client_task_));
    // 16 pages = 64 KB, inside the inode-fs per-file limit (12 direct + 128
    // indirect sectors) while spanning two full readahead batches.
    constexpr uint64_t kPages = 16;
    auto handle = fs.Open(env, "/seq.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    std::vector<uint8_t> chunk(hw::kPageSize, 0x42);
    for (uint64_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(fs.Write(env, *handle, p * hw::kPageSize, chunk.data(),
                           static_cast<uint32_t>(chunk.size()))
                      .ok());
    }
    // Per-page read() pass.
    const uint64_t rpc0 = kernel_.rpc_calls();
    for (uint64_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(fs.Read(env, *handle, p * hw::kPageSize, chunk.data(),
                          static_cast<uint32_t>(chunk.size()))
                      .ok());
    }
    const uint64_t read_rpcs = kernel_.rpc_calls() - rpc0;
    // Mapped pass over the same pages.
    auto mapping = fs.MapObject(env, *handle);
    ASSERT_TRUE(mapping.ok());
    auto object = kernel_.LookupPagedObject(mapping->object_id);
    ASSERT_NE(object, nullptr);
    auto base = kernel_.VmMapObject(*client_task_, object, 0, object->size(),
                                    mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(base.ok());
    const uint64_t rpc1 = kernel_.rpc_calls();
    for (uint64_t p = 0; p < kPages; ++p) {
      uint8_t b = 0;
      ASSERT_EQ(kernel_.CopyIn(*client_task_, *base + p * hw::kPageSize, &b, 1),
                base::Status::kOk);
      ASSERT_EQ(b, 0x42);
    }
    const uint64_t mapped_rpcs = kernel_.rpc_calls() - rpc1;
    EXPECT_GE(read_rpcs, kPages);
    EXPECT_LE(mapped_rpcs * 4, read_rpcs)
        << "readahead should amortize pager RPCs at least 4x below read()";
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

}  // namespace
}  // namespace svc
