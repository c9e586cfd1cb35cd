#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/mk/server_loop.h"
#include "src/mks/naming/name_server.h"
#include "src/svc/fs/file_server.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

// Full stack fixture: a file server with an HPFS volume at "/" and a FAT
// volume at "/fat", each on a disk of its own; a separate client task talks
// to it over RPC.
class FileServerTest : public mk::KernelTest {
 protected:
  FileServerTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 256 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    auto* fat_disk = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d2", 4)));
    fat_store_ = std::make_unique<mks::BackdoorBlockStore>(fat_disk, 10'000);

    server_ = std::make_unique<FileServer>(kernel_, kernel_.CreateTask("file-server"));
    EXPECT_EQ(server_->AddVolume("/", store_.get()), base::Status::kOk);
    EXPECT_EQ(server_->AddVolume("/fat", fat_store_.get(), PfsKind::kFat, 8192, 256),
              base::Status::kOk);
    client_task_ = kernel_.CreateTask("client");
    service_ = server_->GrantTo(*client_task_);
    server_->StartMkfs();
  }

  // Runs the client body once every volume is formatted, then stops the
  // server cleanly.
  void RunClient(std::function<void(mk::Env&, FsClient&)> body) {
    kernel_.CreateThread(client_task_, "client", [this, body](mk::Env& env) {
      server_->AwaitMkfs(env);
      FsClient fs(service_);
      body(env, fs);
      server_->Stop();
    });
    ASSERT_EQ(kernel_.Run(), 0u);
  }

  InodeFs& fat() { return server_->volume(1).pfs(); }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<mks::BackdoorBlockStore> fat_store_;
  std::unique_ptr<FileServer> server_;
  mk::Task* client_task_;
  mk::PortName service_;
};

TEST_F(FileServerTest, CreateWriteReadThroughRpc) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto handle = fs.Open(env, "/docs.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    const char msg[] = "through the file server";
    auto wrote = fs.Write(env, *handle, 0, msg, sizeof(msg));
    ASSERT_TRUE(wrote.ok());
    char out[64] = {};
    auto got = fs.Read(env, *handle, 0, out, sizeof(out));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, sizeof(msg));
    EXPECT_STREQ(out, msg);
    ASSERT_EQ(fs.Close(env, *handle), base::Status::kOk);
    auto attr = fs.GetAttr(env, "/docs.txt");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, sizeof(msg));
  });
}

TEST_F(FileServerTest, SingleRootedTreeSpansFileSystems) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    // HPFS side: long names fine.
    ASSERT_EQ(fs.Mkdir(env, "/projects"), base::Status::kOk);
    auto h1 = fs.Open(env, "/projects/A Long Report.doc", kFsCreate | kFsWrite);
    ASSERT_TRUE(h1.ok());
    ASSERT_EQ(fs.Close(env, *h1), base::Status::kOk);
    // FAT side: the same tree, but 8.3 rules apply beneath /fat.
    auto h2 = fs.Open(env, "/fat/NOTES.TXT", kFsCreate | kFsWrite);
    ASSERT_TRUE(h2.ok());
    ASSERT_EQ(fs.Close(env, *h2), base::Status::kOk);
    EXPECT_EQ(fs.Open(env, "/fat/A Long Report.doc", kFsCreate | kFsWrite).status(),
              base::Status::kNotSupported)
        << "the FAT long-name incompatibility must surface through the server";
    auto entries = fs.ReadDir(env, "/fat");
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "NOTES.TXT");
  });
}

TEST_F(FileServerTest, DenyModesEnforceOs2Sharing) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto writer = fs.Open(env, "/shared.dat", kFsCreate | kFsWrite, FsShare::kDenyWrite);
    ASSERT_TRUE(writer.ok());
    // A second writer violates deny-write.
    EXPECT_EQ(fs.Open(env, "/shared.dat", kFsWrite).status(), base::Status::kBusy);
    // A reader is fine.
    auto reader = fs.Open(env, "/shared.dat", 0);
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(fs.Close(env, *reader), base::Status::kOk);
    // Deny-all blocks even readers.
    ASSERT_EQ(fs.Close(env, *writer), base::Status::kOk);
    auto exclusive = fs.Open(env, "/shared.dat", 0, FsShare::kDenyAll);
    ASSERT_TRUE(exclusive.ok());
    EXPECT_EQ(fs.Open(env, "/shared.dat", 0).status(), base::Status::kBusy);
    ASSERT_EQ(fs.Close(env, *exclusive), base::Status::kOk);
  });
}

TEST_F(FileServerTest, DeleteOnCloseRemovesFile) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/temp.$$$", kFsCreate | kFsWrite | kFsDeleteOnClose);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs.Write(env, *h, 0, "x", 1).ok());
    EXPECT_TRUE(fs.GetAttr(env, "/temp.$$$").ok());
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    EXPECT_EQ(fs.GetAttr(env, "/temp.$$$").status(), base::Status::kNotFound);
  });
}

TEST_F(FileServerTest, AppendModeWritesAtEof) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/log.txt", kFsCreate | kFsWrite | kFsAppend);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs.Write(env, *h, /*offset=*/0, "aaaa", 4).ok());
    // Offset is ignored in append mode: this lands at EOF, not at 0.
    ASSERT_TRUE(fs.Write(env, *h, /*offset=*/0, "bbbb", 4).ok());
    char out[16] = {};
    auto got = fs.Read(env, *h, 0, out, sizeof(out));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 8u);
    EXPECT_EQ(std::string(out, 8), "aaaabbbb");
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FileServerTest, ByteRangeLocksConflict) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h1 = fs.Open(env, "/db.dat", kFsCreate | kFsWrite);
    auto h2 = fs.Open(env, "/db.dat", kFsWrite);
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(h2.ok());
    ASSERT_EQ(fs.Lock(env, *h1, 0, 100, /*exclusive=*/true), base::Status::kOk);
    EXPECT_EQ(fs.Lock(env, *h2, 50, 100, true), base::Status::kBusy);
    EXPECT_EQ(fs.Lock(env, *h2, 100, 100, true), base::Status::kOk);  // disjoint
    // A write into the foreign locked range is refused.
    EXPECT_EQ(fs.Write(env, *h2, 10, "zz", 2).status(), base::Status::kBusy);
    // Unlock releases the conflict.
    ASSERT_EQ(fs.Unlock(env, *h1, 0, 100), base::Status::kOk);
    EXPECT_TRUE(fs.Write(env, *h2, 10, "zz", 2).ok());
    ASSERT_EQ(fs.Close(env, *h1), base::Status::kOk);
    ASSERT_EQ(fs.Close(env, *h2), base::Status::kOk);
  });
}

TEST_F(FileServerTest, CaseInsensitiveFlagOverCaseSensitiveStore) {
  // Mount a JFS (case-sensitive) and open with the OS/2 flag. The mkfs
  // thread, which has not run yet, formats it too.
  auto jfs_disk = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("d3", 5)));
  mks::BackdoorBlockStore jfs_store(jfs_disk, 10'000);
  ASSERT_EQ(server_->AddVolume("/unix", &jfs_store, PfsKind::kJfs, 16384, 256),
            base::Status::kOk);
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/unix/ReadMe.MD", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    // Exact case: plain open works.
    EXPECT_TRUE(fs.Open(env, "/unix/ReadMe.MD").ok());
    // Wrong case without the flag: not found (UNIX semantics).
    EXPECT_EQ(fs.Open(env, "/unix/readme.md").status(), base::Status::kNotFound);
    // Wrong case with the OS/2 case-insensitive flag: the server's union
    // semantics scan finds it.
    auto ci = fs.Open(env, "/unix/readme.md", kFsCaseInsensitive);
    EXPECT_TRUE(ci.ok());
  });
}

TEST_F(FileServerTest, UnlinkOpenFileIsBusy) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/held.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(fs.Unlink(env, "/held.txt"), base::Status::kBusy);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    EXPECT_EQ(fs.Unlink(env, "/held.txt"), base::Status::kOk);
  });
}

TEST_F(FileServerTest, RenameAndEasThroughServer) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/before.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs.Write(env, *h, 0, "data", 4).ok());
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    ASSERT_EQ(fs.SetEa(env, "/before.txt", ".TYPE", "Text"), base::Status::kOk);
    ASSERT_EQ(fs.Rename(env, "/before.txt", "/after.txt"), base::Status::kOk);
    EXPECT_EQ(fs.GetAttr(env, "/before.txt").status(), base::Status::kNotFound);
    auto ea = fs.GetEa(env, "/after.txt", ".TYPE");
    ASSERT_TRUE(ea.ok());
    EXPECT_EQ(*ea, "Text") << "EAs travel with the file across rename";
  });
}

TEST_F(FileServerTest, LargeIoRoundTripsOutOfLine) {
  // Well above the OOL threshold: a 64 KB write and read-back must arrive
  // intact and must have moved by reference, not by the inline copy loop.
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/bulk.bin", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    std::vector<uint8_t> data(64 * 1024);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i % 251);
    }
    const uint64_t ool0 = kernel_.tracer().metrics().Counter("mk.rpc.ool_transfers");
    auto wrote = fs.Write(env, *h, 0, data.data(), static_cast<uint32_t>(data.size()));
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(*wrote, data.size());
    std::vector<uint8_t> back(data.size());
    auto got = fs.Read(env, *h, 0, back.data(), static_cast<uint32_t>(back.size()));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, data.size());
    EXPECT_EQ(back, data);
    // Write request + read reply: at least two OOL transfers.
    EXPECT_GE(kernel_.tracer().metrics().Counter("mk.rpc.ool_transfers") - ool0, 2u);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FileServerTest, ScatterReadGatherWrite) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/vec.bin", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    // Gather-write three extents in one RPC, deliberately out of file order.
    std::vector<uint8_t> a(4096, 0xaa), b(4096, 0xbb), c(1000, 0xcc);
    FsWriteExtent wr[3] = {
        {8192, c.data(), static_cast<uint32_t>(c.size())},
        {0, a.data(), static_cast<uint32_t>(a.size())},
        {4096, b.data(), static_cast<uint32_t>(b.size())},
    };
    auto wrote = fs.WriteV(env, *h, wr, 3);
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(*wrote, a.size() + b.size() + c.size());
    // Scatter-read them back with different extent boundaries.
    std::vector<uint8_t> r1(2048), r2(6144), r3(1000);
    FsReadExtent rd[3] = {
        {0, r1.data(), static_cast<uint32_t>(r1.size())},
        {2048, r2.data(), static_cast<uint32_t>(r2.size())},
        {8192, r3.data(), static_cast<uint32_t>(r3.size())},
    };
    auto got = fs.ReadV(env, *h, rd, 3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, r1.size() + r2.size() + r3.size());
    EXPECT_EQ(r1[0], 0xaa);
    EXPECT_EQ(r2[0], 0xaa);        // 2048..4095 still the first extent
    EXPECT_EQ(r2[2048], 0xbb);     // file offset 4096
    EXPECT_EQ(r3[999], 0xcc);
    // A short final extent stops the scatter at EOF.
    std::vector<uint8_t> tail(4096);
    FsReadExtent rd2[2] = {
        {8192, tail.data(), static_cast<uint32_t>(tail.size())},
        {16384, tail.data(), static_cast<uint32_t>(tail.size())},
    };
    auto short_got = fs.ReadV(env, *h, rd2, 2);
    ASSERT_TRUE(short_got.ok());
    EXPECT_EQ(*short_got, 1000u);
    // Bounds: too many extents is rejected client-side.
    EXPECT_EQ(fs.ReadV(env, *h, rd, kFsMaxExtents + 1).status(),
              base::Status::kInvalidArgument);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FileServerTest, OversizedEaIsInvalidArgument) {
  // Regression: key+value beyond the fixed path2 buffer used to be built
  // into the request unchecked. The client must refuse it outright.
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/ea-host.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    const std::string big_value(200, 'v');  // key+value+NULs > kFsMaxPath
    EXPECT_EQ(fs.SetEa(env, "/ea-host.txt", ".TYPE", big_value),
              base::Status::kInvalidArgument);
    const std::string big_key(180, 'k');
    EXPECT_EQ(fs.SetEa(env, "/ea-host.txt", big_key, "x"),
              base::Status::kInvalidArgument);
    // Wire-legal but beyond the PFS's 48-byte EA slot: the *file system*
    // reports capacity (kTooLarge), distinct from wire-protocol validation.
    EXPECT_EQ(fs.SetEa(env, "/ea-host.txt", ".TYPE", std::string(100, 'v')),
              base::Status::kTooLarge);
    // A storable EA still round-trips.
    EXPECT_EQ(fs.SetEa(env, "/ea-host.txt", ".TYPE", "Plain Text"), base::Status::kOk);
    auto back = fs.GetEa(env, "/ea-host.txt", ".TYPE");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "Plain Text");
  });
}

TEST_F(FileServerTest, HandleStatReturnsAttrsWithoutPathWalk) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/stat-me.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    char payload[300] = {};
    ASSERT_TRUE(fs.Write(env, *h, 0, payload, sizeof(payload)).ok());
    auto attr = fs.Stat(env, *h);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, sizeof(payload));
    EXPECT_FALSE(attr->directory);
    // SetSize is a handle op too: it needs no path.
    ASSERT_EQ(fs.SetSize(env, *h, 100), base::Status::kOk);
    attr = fs.Stat(env, *h);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 100u);
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    // A closed (stale) handle answers kInvalidArgument — the signal a robust
    // FsClient re-opens on, never a crash on an empty path.
    EXPECT_EQ(fs.Stat(env, *h).status(), base::Status::kInvalidArgument);
    EXPECT_EQ(fs.SetSize(env, *h, 0), base::Status::kInvalidArgument);
  });
}

TEST_F(FileServerTest, EmptyOrRelativePathIsNotFound) {
  // Regression: the root mount's prefix strip used to throw std::out_of_range
  // on an empty path, killing the whole simulator, and walked "foo" as "oo".
  // Like POSIX open(""), every path op now fails with kNotFound.
  RunClient([&](mk::Env& env, FsClient& fs) {
    for (const char* bad : {"", "foo"}) {
      EXPECT_EQ(fs.Open(env, bad, kFsCreate | kFsWrite).status(), base::Status::kNotFound)
          << "'" << bad << "'";
      EXPECT_EQ(fs.Mkdir(env, bad), base::Status::kNotFound);
      EXPECT_EQ(fs.Unlink(env, bad), base::Status::kNotFound);
      EXPECT_EQ(fs.GetAttr(env, bad).status(), base::Status::kNotFound);
      EXPECT_EQ(fs.Rename(env, bad, "/renamed.txt"), base::Status::kNotFound);
    }
    auto h = fs.Open(env, "/rename-me.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok()) << base::StatusName(h.status());
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    EXPECT_EQ(fs.Rename(env, "/rename-me.txt", ""), base::Status::kNotFound);
    EXPECT_TRUE(fs.GetAttr(env, "/rename-me.txt").ok());
  });
}

TEST_F(FileServerTest, UnterminatedPathFieldsAreInvalidArgument) {
  // Regression: a hand-built request whose path or path2 holds no NUL was
  // read as a C string past the end of the request (an ASan stack-buffer
  // overflow). Dispatch now refuses it before any handler runs.
  RunClient([&](mk::Env& env, FsClient& fs) {
    for (const bool second : {false, true}) {
      FsRequest r;
      r.op = second ? FsOp::kRename : FsOp::kOpen;
      r.flags = kFsCreate | kFsWrite;
      r.SetPath("/ok.txt");
      std::memset(second ? r.path2 : r.path, 'x', kFsMaxPath);
      FsReply reply;
      ASSERT_EQ(env.RpcCall(service_, &r, sizeof(r), &reply, sizeof(reply)),
                base::Status::kOk);
      EXPECT_EQ(reply.status, static_cast<int32_t>(base::Status::kInvalidArgument))
          << (second ? "path2" : "path");
    }
    auto h = fs.Open(env, "/canary.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok()) << base::StatusName(h.status());
    EXPECT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

// What a server received: the request, zero past the bytes sent, and how
// many bytes were sent.
struct Received {
  FsRequest req;
  uint32_t len = 0;
};

// The bytes an op must send, from the request's own strings: the fixed
// part, then through the NUL of the last string the op reads.
uint32_t ExpectedWireLength(const FsRequest& r) {
  const auto end_of = [](size_t field, const char* s) {
    return static_cast<uint32_t>(field + std::strlen(s) + 1);
  };
  switch (r.op) {
    case FsOp::kOpen:
    case FsOp::kGetAttr:
    case FsOp::kMkdir:
    case FsOp::kReadDir:
    case FsOp::kUnlink:
      return end_of(offsetof(FsRequest, path), r.path);
    case FsOp::kRename:
    case FsOp::kGetEa:
      return end_of(offsetof(FsRequest, path2), r.path2);
    case FsOp::kSetEa: {
      const size_t key_bytes = std::strlen(r.path2) + 1;
      return end_of(offsetof(FsRequest, path2) + key_bytes, r.path2 + key_bytes);
    }
    default:
      return offsetof(FsRequest, path);
  }
}

// Every op FsClient sends, once each (Sync is the only op it never sends).
void EveryClientOp(mk::Env& env, FsClient& fs, const std::string& dir) {
  ASSERT_EQ(fs.Mkdir(env, dir), base::Status::kOk);
  const std::string path = dir + "/wire.txt";
  auto h = fs.Open(env, path, kFsCreate | kFsWrite);
  ASSERT_TRUE(h.ok()) << base::StatusName(h.status());
  char data[300] = {};
  char back[300] = {};
  ASSERT_TRUE(fs.Write(env, *h, 0, data, sizeof(data)).ok());
  ASSERT_TRUE(fs.Read(env, *h, 0, back, sizeof(back)).ok());
  const FsWriteExtent wr[2] = {{0, data, 10}, {100, data, 10}};
  ASSERT_TRUE(fs.WriteV(env, *h, wr, 2).ok());
  const FsReadExtent rd[2] = {{0, back, 10}, {100, back + 10, 10}};
  ASSERT_TRUE(fs.ReadV(env, *h, rd, 2).ok());
  ASSERT_TRUE(fs.Stat(env, *h).ok());
  ASSERT_EQ(fs.SetSize(env, *h, 200), base::Status::kOk);
  ASSERT_EQ(fs.Lock(env, *h, 0, 10, /*exclusive=*/true), base::Status::kOk);
  ASSERT_EQ(fs.Unlock(env, *h, 0, 10), base::Status::kOk);
  auto mapping = fs.MapObject(env, *h, hw::kPageSize);
  ASSERT_TRUE(mapping.ok()) << base::StatusName(mapping.status());
  ASSERT_TRUE(fs.UnmapObject(env, mapping->object_id).ok());
  ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  ASSERT_TRUE(fs.GetAttr(env, path).ok());
  ASSERT_EQ(fs.SetEa(env, path, ".TYPE", "Text"), base::Status::kOk);
  ASSERT_TRUE(fs.GetEa(env, path, ".TYPE").ok());
  ASSERT_TRUE(fs.ReadDir(env, dir).ok());
  ASSERT_EQ(fs.Rename(env, path, dir + "/moved.txt"), base::Status::kOk);
  ASSERT_EQ(fs.Unlink(env, dir + "/moved.txt"), base::Status::kOk);
}

// The wire contract: every request FsClient sends, over either transport,
// carries exactly its op's bytes (a read or write sends no path). A
// recording proxy in front of the file server forwards each request as
// received and keeps a copy.
TEST_F(FileServerTest, EveryClientOpSendsItsWireLength) {
  server_->EnableMapping();
  mk::Task* ns_task = kernel_.CreateTask("mks-naming");
  mks::NameServer names(kernel_, ns_task);
  const mk::PortName ns_right = names.GrantTo(*client_task_);
  mk::Task* proxy_task = kernel_.CreateTask("fs-proxy");
  auto proxy_port = kernel_.PortAllocate(*proxy_task);
  ASSERT_TRUE(proxy_port.ok());
  const mk::PortName upstream = server_->GrantTo(*proxy_task);
  auto to_proxy = kernel_.MakeSendRight(*proxy_task, *proxy_port, *client_task_);
  ASSERT_TRUE(to_proxy.ok());
  mk::ServerLoop proxy(*proxy_port, "fs-proxy", kFsMaxIo + kFsMaxExtents * sizeof(FsExtent));
  std::vector<Received> seen;
  kernel_.CreateThread(proxy_task, "proxy", [&](mk::Env& env) {
    std::vector<uint8_t> reply_data(kFsMaxIo);
    proxy.Run<FsRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                                  const uint8_t* ref_data, uint32_t ref_len) {
      seen.push_back({r, rpc.req_len});
      mk::RpcRef ref;
      ref.send_data = ref_data;
      ref.send_len = ref_len;
      ref.recv_buf = reply_data.data();
      ref.recv_cap = static_cast<uint32_t>(reply_data.size());
      FsReply reply;
      const base::Status st =
          env.RpcCall(upstream, &r, rpc.req_len, &reply, sizeof(reply), nullptr, &ref);
      if (st != base::Status::kOk) {
        reply.status = static_cast<int32_t>(st);
      }
      proxy.Reply(rpc, &reply, sizeof(reply), reply_data.data(), ref.recv_len);
    });
  });
  size_t plain_calls = 0;
  kernel_.CreateThread(client_task_, "client", [&](mk::Env& env) {
    FsClient plain(*to_proxy);
    EveryClientOp(env, plain, "/wire-plain");
    plain_calls = seen.size();
    mks::NameClient nc(ns_right);
    ASSERT_EQ(nc.Register(env, "/svc/fs-proxy", *to_proxy), base::Status::kOk);
    FsClient robust(ns_right, "/svc/fs-proxy");
    EveryClientOp(env, robust, "/wire-robust");
    proxy.Stop();
    server_->Stop();
    names.Stop();
  });
  ASSERT_EQ(kernel_.Run(), 0u);

  std::set<FsOp> every_op;
  for (uint32_t op = 1; op <= static_cast<uint32_t>(FsOp::kMapRelease); ++op) {
    if (static_cast<FsOp>(op) != FsOp::kSync) {
      every_op.insert(static_cast<FsOp>(op));
    }
  }
  for (const bool robust : {false, true}) {
    const size_t first = robust ? plain_calls : 0;
    const size_t last = robust ? seen.size() : plain_calls;
    std::set<FsOp> ops;
    for (size_t i = first; i < last; ++i) {
      const Received& got = seen[i];
      ops.insert(got.req.op);
      EXPECT_EQ(got.len, ExpectedWireLength(got.req))
          << "op " << static_cast<uint32_t>(got.req.op) << (robust ? ", robust" : ", plain");
      EXPECT_EQ(got.len, FsWireLength(got.req)) << "op " << static_cast<uint32_t>(got.req.op);
    }
    EXPECT_EQ(ops, every_op) << (robust ? "robust" : "plain");
  }
  // A handle op carries the fixed part alone.
  EXPECT_EQ(kFsFixedBytes, 48u);
}

// A request cut short of its op's bytes is refused. The server zero-fills
// what was not sent, so a cut path would otherwise be served as its own
// prefix, a cut EA as an empty value, and a cut read as a read of 0 bytes.
TEST_F(FileServerTest, CutRequestsAreInvalidArgument) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    char data[8] = {};
    const auto send = [&](const FsRequest& r, uint32_t len) {
      FsReply reply;
      mk::RpcRef ref;
      ref.recv_buf = data;
      ref.recv_cap = sizeof(data);
      EXPECT_EQ(env.RpcCall(service_, &r, len, &reply, sizeof(reply), nullptr, &ref),
                base::Status::kOk);
      return static_cast<base::Status>(reply.status);
    };
    auto h = fs.Open(env, "/cut-host.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs.Write(env, *h, 0, "data", 4).ok());
    ASSERT_EQ(fs.SetEa(env, "/cut-host.txt", ".TYPE", "Old"), base::Status::kOk);

    // Cut inside the fixed part: the read's length was not sent.
    FsRequest read;
    read.op = FsOp::kRead;
    read.handle = *h;
    read.len = 4;
    EXPECT_EQ(send(read, offsetof(FsRequest, len)), base::Status::kInvalidArgument);

    // Cut inside path: "/cut-me.txt" must not create "/cut".
    FsRequest open;
    open.op = FsOp::kOpen;
    open.flags = kFsCreate | kFsWrite;
    open.SetPath("/cut-me.txt");
    EXPECT_EQ(send(open, kFsFixedBytes + 4), base::Status::kInvalidArgument);
    EXPECT_EQ(fs.GetAttr(env, "/cut").status(), base::Status::kNotFound);

    // Cut between SetEa's key and value: "Old" must survive.
    FsRequest ea;
    ea.op = FsOp::kSetEa;
    ea.SetPath("/cut-host.txt");
    std::memcpy(ea.path2, ".TYPE\0New", sizeof(".TYPE\0New"));
    EXPECT_EQ(send(ea, offsetof(FsRequest, path2) + sizeof(".TYPE")),
              base::Status::kInvalidArgument);
    auto value = fs.GetEa(env, "/cut-host.txt", ".TYPE");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, "Old");

    // The same requests whole are served, and so is a request sent with
    // the whole struct behind it.
    EXPECT_EQ(send(read, FsWireLength(read)), base::Status::kOk);
    EXPECT_EQ(std::string(data, 4), "data");
    EXPECT_EQ(send(ea, sizeof(ea)), base::Status::kOk);
    value = fs.GetEa(env, "/cut-host.txt", ".TYPE");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, "New");
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FileServerTest, OpenWithTheKernelHeapFullIsResourceShortage) {
  // An open takes 96 B for the open file and 128 B for its port from a
  // kernel heap that never frees. A full heap refuses the open (was a host
  // abort, "kernel heap exhausted") and counts nothing; handles already
  // open keep working.
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto handle = fs.Open(env, "/kept.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    const char msg[] = "opened before the heap filled";
    ASSERT_TRUE(fs.Write(env, *handle, 0, msg, sizeof(msg)).ok());
    mk::FillKernelHeap(kernel_);
    const uint64_t opens = server_->opens();
    EXPECT_EQ(fs.Open(env, "/kept.txt", kFsWrite).status(),
              base::Status::kResourceShortage);
    EXPECT_EQ(fs.Open(env, "/kept.txt").status(), base::Status::kResourceShortage);
    EXPECT_EQ(server_->opens(), opens);
    char out[64] = {};
    auto got = fs.Read(env, *handle, 0, out, sizeof(out));
    ASSERT_TRUE(got.ok());
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(fs.Close(env, *handle), base::Status::kOk);
    // A refused open that had counted itself would keep the file busy.
    EXPECT_EQ(fs.Unlink(env, "/kept.txt"), base::Status::kOk);
    EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  });
}

TEST_F(FileServerTest, FailedOpenLeavesNoSharingState) {
  // A file's sharing state is made when an open commits. An open the kernel
  // heap cannot hold used to leave an empty entry behind, and the file,
  // which nobody had open, answered kBusy to every unlink and rename.
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto handle = fs.Open(env, "/probe.txt", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(fs.Close(env, *handle), base::Status::kOk);
    mk::FillKernelHeap(kernel_);
    EXPECT_EQ(fs.Open(env, "/probe.txt", kFsWrite).status(), base::Status::kResourceShortage);
    EXPECT_EQ(fs.Unlink(env, "/probe.txt"), base::Status::kOk);
  });
}

TEST_F(FileServerTest, TruncatingOpenOfAFatDirectoryIsInvalidArgument) {
  // As on HPFS, a directory is not a file to truncate, on the 8.3 volume
  // too: a truncating open of its root or of a subdirectory frees nothing.
  RunClient([&](mk::Env& env, FsClient& fs) {
    ASSERT_EQ(fs.Mkdir(env, "/fat/SUB"), base::Status::kOk);
    auto inner = fs.Open(env, "/fat/SUB/INNER.TXT", kFsCreate | kFsWrite);
    ASSERT_TRUE(inner.ok());
    ASSERT_EQ(fs.Close(env, *inner), base::Status::kOk);
    ASSERT_EQ(fs.Mkdir(env, "/hsub"), base::Status::kOk);
    const uint64_t free_blocks = fat().free_blocks();
    for (const char* dir : {"/fat/SUB", "/fat", "/hsub"}) {
      EXPECT_EQ(fs.Open(env, dir, kFsWrite | kFsTruncate).status(),
                base::Status::kInvalidArgument)
          << dir;
    }
    EXPECT_EQ(fat().free_blocks(), free_blocks);
    auto entries = fs.ReadDir(env, "/fat/SUB");
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "INNER.TXT");
    EXPECT_TRUE(fs.GetAttr(env, "/fat/SUB/INNER.TXT").ok());
  });
}

TEST_F(FileServerTest, GatherWriteOnAnAppendHandleAppends) {
  // kWriteV honours kFsAppend as kWrite does: the extents land back to back
  // at EOF, whatever offsets they name (they used to land where they said).
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/journal.log", kFsCreate | kFsWrite | kFsAppend);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs.Write(env, *h, 0, "0123456789", 10).ok());
    const FsWriteExtent extents[] = {{0, "X", 1}, {5, "YZ", 2}};
    auto wrote = fs.WriteV(env, *h, extents, 2);
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(*wrote, 3u);
    auto attr = fs.Stat(env, *h);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 13u);
    char out[16] = {};
    auto got = fs.Read(env, *h, 0, out, sizeof(out));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(out, *got), "0123456789XYZ");
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
  });
}

TEST_F(FileServerTest, LockLengthsPastTheWireAreRefused) {
  // The wire carries a 32-bit length: a wider one is refused rather than
  // cut (2^32 used to lock nothing and answer kOk), and the server refuses a
  // raw range whose end passes 2^64.
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h1 = fs.Open(env, "/wide.dat", kFsCreate | kFsWrite);
    auto h2 = fs.Open(env, "/wide.dat", kFsWrite);
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(h2.ok());
    EXPECT_EQ(fs.Lock(env, *h1, 0, 1ull << 32, /*exclusive=*/true),
              base::Status::kInvalidArgument);
    EXPECT_EQ(fs.Unlock(env, *h1, 0, 1ull << 32), base::Status::kInvalidArgument);
    EXPECT_EQ(fs.MapObject(env, *h1, 1ull << 32).status(), base::Status::kInvalidArgument);
    FsRequest wrap;
    wrap.op = FsOp::kLock;
    wrap.handle = *h1;
    wrap.offset = ~0ull - 9;
    wrap.len = 100;
    wrap.lock_exclusive = 1;
    FsReply reply;
    ASSERT_EQ(env.RpcCall(service_, &wrap, FsWireLength(wrap), &reply, sizeof(reply)),
              base::Status::kOk);
    EXPECT_EQ(static_cast<base::Status>(reply.status), base::Status::kInvalidArgument);
    // Nothing was locked, and the widest range the wire carries still is.
    EXPECT_TRUE(fs.Write(env, *h2, 0, "x", 1).ok());
    ASSERT_EQ(fs.Lock(env, *h1, 0, UINT32_MAX, /*exclusive=*/true), base::Status::kOk);
    EXPECT_EQ(fs.Write(env, *h2, 0, "x", 1).status(), base::Status::kBusy);
    ASSERT_EQ(fs.Close(env, *h1), base::Status::kOk);
    ASSERT_EQ(fs.Close(env, *h2), base::Status::kOk);
  });
}

TEST_F(FileServerTest, EachServerAnswersReadsFromItsOwnBuffer) {
  // Two more servers on this kernel, each over its own disk and a 4-sector
  // cache: an 8 KB read misses sector by sector and yields to the disk with
  // its reply half filled, so the two reads below interleave. Each client
  // must get its own server's bytes.
  struct Stack {
    std::unique_ptr<mks::BackdoorBlockStore> store;
    std::unique_ptr<FileServer> server;
    mk::PortName service = mk::kNullPort;
  };
  Stack stacks[2];
  for (int i = 0; i < 2; ++i) {
    Stack& s = stacks[i];
    auto* disk = static_cast<hw::Disk*>(
        machine_.AddDevice(std::make_unique<hw::Disk>("own" + std::to_string(i), 5 + i)));
    s.store = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    s.server = std::make_unique<FileServer>(kernel_, kernel_.CreateTask("fs" + std::to_string(i)));
    ASSERT_EQ(s.server->AddVolume("/", s.store.get(), PfsKind::kHpfs, 8192, 4), base::Status::kOk);
    s.service = s.server->GrantTo(*client_task_);
    s.server->StartMkfs();
  }
  int written = 0;
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    kernel_.CreateThread(client_task_, "reader", [&, i](mk::Env& env) {
      Stack& s = stacks[i];
      s.server->AwaitMkfs(env);
      FsClient fs(s.service);
      auto h = fs.Open(env, "/own.dat", kFsCreate | kFsWrite);
      ASSERT_TRUE(h.ok());
      const std::vector<uint8_t> mine(8192, static_cast<uint8_t>('A' + i));
      ASSERT_TRUE(fs.Write(env, *h, 0, mine.data(), 8192).ok());
      ++written;
      while (written < 2) {
        env.SleepNs(1'000);
      }
      std::vector<uint8_t> got(8192);
      auto n = fs.Read(env, *h, 0, got.data(), 8192);
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, 8192u);
      EXPECT_EQ(std::count(got.begin(), got.end(), 'A' + i), 8192) << "server " << i;
      ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
      s.server->Stop();
      if (++done == 2) {
        server_->Stop();
      }
    });
  }
  ASSERT_EQ(kernel_.Run(), 0u);
}

TEST_F(FileServerTest, EaOnFatIsNotSupported) {
  RunClient([&](mk::Env& env, FsClient& fs) {
    auto h = fs.Open(env, "/fat/PLAIN.TXT", kFsCreate | kFsWrite);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(fs.Close(env, *h), base::Status::kOk);
    EXPECT_EQ(fs.SetEa(env, "/fat/PLAIN.TXT", ".TYPE", "Text"),
              base::Status::kNotSupported)
        << "the on-disk format limits the logical processing (paper, Semantics)";
  });
}

}  // namespace
}  // namespace svc
