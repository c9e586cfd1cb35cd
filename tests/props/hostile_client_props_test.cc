// Hostile-client harness (ROADMAP item 4): seeded raw requests that no stub
// would build, against the file server (over an HPFS and a FAT mount), the
// full and lite name servers, the NIC driver, the disk driver and the OS/2
// server. Each request goes out through Env::RpcCall with a deadline, and
// the oracle is:
//
//   - every answer is a typed status: the transport's, or a reply status
//     that names a base::Status;
//   - no request hangs its server (its deadline would expire) or kills it;
//   - afterwards a canary on every mount creates, writes, reads back and
//     removes a file, both name servers register and resolve, the NIC
//     echoes a frame, the disk driver writes a sector and reads it back,
//     and a fresh OS/2 semaphore is created, requested and released;
//   - Kernel::CheckInvariants() returns 0.
//
// The disk and OS/2 campaigns also check every answer against a model: of
// the disk's extent and payload checks, and of which semaphores the client
// holds (a request parks only on one it holds, and only a holder's release
// answers kOk).
//
// An abort fails the test binary; the ASan and UBSan legs add "no sanitizer
// report". Each seed runs on a fresh system, so a failure names its seed and
// request, and WPOS_PROPS_SEED=<seed> replays it alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/drv/disk_driver.h"
#include "src/drv/nic_driver.h"
#include "src/mks/naming/lite_name_server.h"
#include "src/mks/naming/name_server.h"
#include "src/mks/pager/default_pager.h"
#include "src/pers/os2/os2.h"
#include "src/svc/fs/file_server.h"
#include "tests/props/seeds.h"

namespace {

constexpr int kRequestsPerSeed = 300;
// Far beyond any well-formed request's service time: a miss means a hang.
constexpr uint64_t kDeadlineNs = 2'000'000'000;

// Every server and a hostile client on one fresh machine.
struct System {
  System() : machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024}), kernel(&machine) {
    auto* disk = static_cast<hw::Disk*>(machine.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 32 * 1024})));
    store = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    auto* fat_disk = static_cast<hw::Disk*>(machine.AddDevice(std::make_unique<hw::Disk>("f", 4)));
    fat_store = std::make_unique<mks::BackdoorBlockStore>(fat_disk, 10'000);
    fs = std::make_unique<svc::FileServer>(kernel, kernel.CreateTask("file-server"));
    fs->EnableMapping();
    EXPECT_EQ(fs->AddVolume("/", store.get(), svc::PfsKind::kHpfs, 16384, 256), base::Status::kOk);
    EXPECT_EQ(fs->AddVolume("/fat", fat_store.get(), svc::PfsKind::kFat, 8192, 128),
              base::Status::kOk);
    fs->StartMkfs();
    names = std::make_unique<mks::NameServer>(kernel, kernel.CreateTask("naming"));
    lite = std::make_unique<mks::LiteNameServer>(kernel, kernel.CreateTask("naming-lite"));
    nic = static_cast<hw::Nic*>(machine.AddDevice(std::make_unique<hw::Nic>("nic0", 5)));
    nic_task = kernel.CreateTask("nic-driver");
    nic_driver = std::make_unique<drv::NicDriver>(kernel, nic_task, nic, nullptr);
    raw_disk = static_cast<hw::Disk*>(machine.AddDevice(std::make_unique<hw::Disk>("raw", 6)));
    mk::Task* disk_task = kernel.CreateTask("disk-driver");
    disk_driver = std::make_unique<drv::DiskDriver>(kernel, disk_task, raw_disk, nullptr);
    os2 = std::make_unique<pers::Os2Server>(kernel, kernel.CreateTask("os2-server"));
    client = kernel.CreateTask("hostile");
    fs_port = fs->GrantTo(*client);
    names_port = names->GrantTo(*client);
    lite_port = lite->GrantTo(*client);
    nic_port = nic_driver->GrantTo(*client);
    disk_port = disk_driver->GrantTo(*client);
    os2_port = os2->GrantTo(*client);
    // A send right whose port the campaign kills: a right to a dead port.
    mk::Task* helper = kernel.CreateTask("helper");
    const mk::PortName doomed = *kernel.PortAllocate(*helper);
    dead_right = *kernel.MakeSendRight(*helper, doomed, *client);
    kill_doomed = [this, helper, doomed] { (void)kernel.PortDestroy(*helper, doomed); };
  }

  // Runs `campaign` as the hostile client, then stops every server. No
  // thread may be left blocked, and the object graph must be consistent.
  void Run(const std::function<void(mk::Env&)>& campaign) {
    kernel.CreateThread(client, "hostile", [&](mk::Env& env) {
      fs->AwaitMkfs(env);
      campaign(env);
      fs->Stop();
      names->Stop();
      lite->Stop();
      nic_driver->Stop();
      disk_driver->Stop();
      os2->Stop();
      kernel.TerminateTask(nic_task);  // its interrupt thread runs until the task dies
    });
    EXPECT_EQ(kernel.Run(), 0u);
    EXPECT_EQ(kernel.CheckInvariants(), 0u);
  }

  hw::Machine machine;
  mk::Kernel kernel;
  std::unique_ptr<mks::BackdoorBlockStore> store;
  std::unique_ptr<mks::BackdoorBlockStore> fat_store;
  std::unique_ptr<svc::FileServer> fs;
  std::unique_ptr<mks::NameServer> names;
  std::unique_ptr<mks::LiteNameServer> lite;
  hw::Nic* nic = nullptr;
  mk::Task* nic_task = nullptr;
  std::unique_ptr<drv::NicDriver> nic_driver;
  hw::Disk* raw_disk = nullptr;
  std::unique_ptr<drv::DiskDriver> disk_driver;
  std::unique_ptr<pers::Os2Server> os2;
  mk::Task* client = nullptr;
  mk::PortName fs_port = mk::kNullPort;
  mk::PortName names_port = mk::kNullPort;
  mk::PortName lite_port = mk::kNullPort;
  mk::PortName nic_port = mk::kNullPort;
  mk::PortName disk_port = mk::kNullPort;
  mk::PortName os2_port = mk::kNullPort;
  mk::PortName dead_right = mk::kNullPort;
  std::function<void()> kill_doomed;
};

bool IsTyped(base::Status st) {
  return static_cast<int32_t>(st) >= 0 && st <= base::Status::kInternal;
}

// One raw request and the oracle's per-request half: it completes before its
// deadline with a typed status. Answers the status.
template <typename Rep>
base::Status Send(mk::Env& env, mk::PortName port, const std::vector<uint8_t>& req, Rep* reply,
                  mk::RpcRef* ref, const mk::RightDescriptor* right, const std::string& what) {
  const base::Status st =
      env.RpcCall(port, req.data(), static_cast<uint32_t>(req.size()), reply, sizeof(*reply),
                  nullptr, ref, right, right != nullptr ? 1 : 0, nullptr, kDeadlineNs);
  EXPECT_TRUE(IsTyped(st)) << what;
  // kPortDead may name a dead right in the request or in the reply; a dead
  // server shows in the canaries.
  EXPECT_NE(st, base::Status::kTimedOut) << "the server hung on " << what;
  const auto answer = static_cast<base::Status>(reply->status);
  EXPECT_TRUE(st != base::Status::kOk || IsTyped(answer)) << what << ": " << reply->status;
  return st != base::Status::kOk ? st : answer;
}

// The bytes a request goes out with: its own wire length, a cut prefix, or
// more than the server's request type holds (the transport refuses those).
template <typename Req>
std::vector<uint8_t> Wire(base::Rng& rng, const Req& req, uint32_t wire_len, std::ostream& what) {
  uint32_t len = wire_len != 0 ? wire_len : sizeof(Req);
  const uint64_t roll = rng.NextBelow(20);
  if (roll == 0) {
    len = static_cast<uint32_t>(rng.NextBelow(len));
  } else if (roll == 1) {
    len = static_cast<uint32_t>(sizeof(Req) + rng.NextInRange(1, 64));
  }
  what << " len=" << len;
  std::vector<uint8_t> bytes(std::max<size_t>(len, sizeof(Req)), 0x5a);
  std::memcpy(bytes.data(), &req, sizeof(Req));
  bytes.resize(len);
  return bytes;
}

// A field of `n` bytes: a name from `palette`, nothing, or no NUL at all.
void FillString(base::Rng& rng, char* field, size_t n, const std::vector<std::string>& palette) {
  std::memset(field, 0, n);
  const uint64_t roll = rng.NextBelow(10);
  if (roll == 0) {
    std::memset(field, 'x', n);  // unterminated
  } else if (roll == 1) {
    for (size_t i = 0; i < n; ++i) {
      field[i] = static_cast<char>(rng.Next());
    }
  } else if (roll > 2) {
    const std::string& s = palette[rng.NextBelow(palette.size())];
    std::memcpy(field, s.c_str(), std::min(s.size() + 1, n));
  }
}

uint64_t FarOffset(base::Rng& rng) {
  static constexpr uint64_t kOffsets[] = {
      0, 1ull << 31, (1ull << 32) - 1, 1ull << 32, 1ull << 41, 64ull << 20, 1ull << 63,
      ~0ull - 2047, ~0ull,
  };
  const uint64_t roll = rng.NextBelow(12);
  if (roll < 3) {
    return rng.NextBelow(16 * 1024);
  }
  return roll < 11 ? kOffsets[rng.NextBelow(std::size(kOffsets))] : rng.Next();
}

uint32_t AnyLength(base::Rng& rng) {
  static constexpr uint32_t kLengths[] = {0, 1, svc::kFsMaxIo, svc::kFsMaxIo + 1, UINT32_MAX};
  return rng.NextBool(0.6) ? static_cast<uint32_t>(rng.NextBelow(8192))
                           : kLengths[rng.NextBelow(std::size(kLengths))];
}

// A file-server canary at `path`: create, write, read back, remove.
void FsCanary(mk::Env& env, svc::FsClient& fs, const std::string& path) {
  auto h = fs.Open(env, path, svc::kFsCreate | svc::kFsWrite);
  ASSERT_TRUE(h.ok()) << path << ": " << base::StatusName(h.status());
  const std::string msg = "canary " + path;
  auto wrote = fs.Write(env, *h, 0, msg.data(), static_cast<uint32_t>(msg.size()));
  ASSERT_TRUE(wrote.ok()) << path << ": " << base::StatusName(wrote.status());
  std::vector<char> back(msg.size() + 8, 0);
  auto got = fs.Read(env, *h, 0, back.data(), static_cast<uint32_t>(back.size()));
  ASSERT_TRUE(got.ok()) << path;
  EXPECT_EQ(std::string(back.data(), *got), msg) << path;
  EXPECT_EQ(fs.Close(env, *h), base::Status::kOk) << path;
  EXPECT_EQ(fs.Unlink(env, path), base::Status::kOk) << path;
}

void FsCampaign(mk::Env& env, System& sys, uint64_t seed) {
  base::Rng rng(seed);
  svc::FsClient fs(sys.fs_port);
  // Handles the requests aim at: one live file on each mount, a closed
  // handle, and the object id of a mapping.
  std::vector<uint64_t> handles;
  for (const char* path : {"/h.dat", "/fat/H.DAT", "/closed.dat"}) {
    auto h = fs.Open(env, path, svc::kFsCreate | svc::kFsWrite);
    ASSERT_TRUE(h.ok()) << path;
    ASSERT_TRUE(fs.Write(env, *h, 0, "hostile", 7).ok()) << path;
    handles.push_back(*h);
  }
  ASSERT_EQ(fs.Close(env, handles[2]), base::Status::kOk);
  auto mapping = fs.MapObject(env, handles[0]);
  ASSERT_TRUE(mapping.ok());
  handles.push_back(mapping->object_id);
  const std::vector<std::string> paths = {
      "/h.dat", "/fat/H.DAT", "/new.dat", "/fat/NEW.DAT", "/dir", "/fat/DIR", "/fat", "/",
      "relative", "//", "/no/such/file"};
  std::vector<uint8_t> out(svc::kFsMaxIo + 4096);
  for (int i = 0; i < kRequestsPerSeed; ++i) {
    std::ostringstream what;
    what << "seed=" << seed << " fs request " << i;
    svc::FsRequest r;
    const uint64_t op = rng.NextBelow(22);
    r.op = static_cast<svc::FsOp>(op == 21 ? rng.Next() : op);
    r.flags = rng.NextBool(0.8) ? static_cast<uint32_t>(rng.NextBelow(128))
                                : static_cast<uint32_t>(rng.Next());
    r.share = static_cast<svc::FsShare>(rng.NextBelow(4));
    r.handle = rng.NextBool(0.8) ? handles[rng.NextBelow(handles.size())] : rng.Next();
    r.offset = FarOffset(rng);
    r.len = AnyLength(rng);
    r.lock_exclusive = static_cast<uint32_t>(rng.NextBelow(2));
    r.extent_count = static_cast<uint32_t>(
        rng.NextBool(0.8) ? rng.NextBelow(svc::kFsMaxExtents + 2) : rng.Next());
    FillString(rng, r.path, sizeof(r.path), paths);
    FillString(rng, r.path2, sizeof(r.path2),
               {std::string(".KEY\0value", 10), "/fat/MOVED.DAT", "/moved.dat"});
    // By-reference data: an extent table (valid, short or wrapping) and a
    // payload that may or may not match it. Half the I/O requests are made
    // well-formed, so that their far offsets reach the file systems.
    const bool well_formed = rng.NextBool(0.5);
    const bool vectored = r.op == svc::FsOp::kReadV || r.op == svc::FsOp::kWriteV;
    std::vector<uint8_t> ref_data;
    if (rng.NextBool(0.6) || (well_formed && vectored)) {
      const uint32_t count = well_formed ? static_cast<uint32_t>(rng.NextInRange(1, 16))
                                         : static_cast<uint32_t>(rng.NextBelow(18));
      uint64_t total = 0;
      for (uint32_t e = 0; e < count; ++e) {
        const svc::FsExtent ext{FarOffset(rng), rng.NextBool(0.8) || well_formed
                                                    ? static_cast<uint32_t>(rng.NextBelow(4096))
                                                    : AnyLength(rng)};
        total += ext.len;
        const auto* bytes = reinterpret_cast<const uint8_t*>(&ext);
        ref_data.insert(ref_data.end(), bytes, bytes + sizeof(ext));
      }
      uint64_t payload = rng.NextBool(0.7) ? total : rng.NextBelow(8192);
      if (well_formed && vectored) {
        r.extent_count = count;
        r.len = static_cast<uint32_t>(total);
        payload = r.op == svc::FsOp::kWriteV ? total : 0;
      }
      ref_data.resize(ref_data.size() + std::min<uint64_t>(payload, svc::kFsMaxIo + 64), 0xab);
      if (rng.NextBool(0.2) && !well_formed) {
        ref_data.resize(rng.NextBelow(ref_data.size() + 1));
      }
    }
    if (well_formed && (r.op == svc::FsOp::kRead || r.op == svc::FsOp::kWrite)) {
      r.len = static_cast<uint32_t>(rng.NextBelow(4096));
      ref_data.assign(r.op == svc::FsOp::kWrite ? r.len : 0, 0xab);
    }
    what << " op=" << static_cast<uint32_t>(r.op) << " handle=" << r.handle
         << " offset=" << r.offset << " len=" << r.len << " extents=" << r.extent_count
         << " ref=" << ref_data.size();
    mk::RpcRef ref;
    ref.send_data = ref_data.empty() ? nullptr : ref_data.data();
    ref.send_len = static_cast<uint32_t>(ref_data.size());
    ref.recv_buf = out.data();
    ref.recv_cap = static_cast<uint32_t>(out.size());
    const std::vector<uint8_t> wire = Wire(rng, r, svc::FsWireLength(r), what);
    svc::FsReply reply;
    (void)Send(env, sys.fs_port, wire, &reply, &ref, nullptr, what.str());
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  for (const char* path : {"/canary.dat", "/fat/CANARY.DAT"}) {
    FsCanary(env, fs, path);
  }
  EXPECT_EQ(env.kernel().CheckInvariants(), 0u) << "seed=" << seed;
}

void NamingCampaign(mk::Env& env, System& sys, uint64_t seed) {
  base::Rng rng(seed);
  auto live = env.PortAllocate();
  auto notify = env.PortAllocate();
  ASSERT_TRUE(live.ok() && notify.ok());
  const mk::RightDescriptor rights[] = {
      {.name = *live}, {.name = *notify}, {.name = sys.dead_right}};
  const std::vector<std::string> names = {"/svc/a", "/svc/b", "/svc", "/", "", "rel/name",
                                          "//x//", "/svc/a/deep"};
  for (int i = 0; i < kRequestsPerSeed; ++i) {
    std::ostringstream what;
    what << "seed=" << seed << " naming request " << i;
    if (i == kRequestsPerSeed / 3) {
      sys.kill_doomed();  // from here on the dead right names a dead port
    } else if (i == 2 * kRequestsPerSeed / 3) {
      // A watcher whose port dies: later notices find it dead.
      (void)env.kernel().PortDestroy(env.task(), *notify);
    }
    const mk::RightDescriptor* right =
        rng.NextBool(0.3) ? nullptr : &rights[rng.NextBelow(std::size(rights))];
    what << " right=" << (right != nullptr ? right->name : 0);
    mk::RpcRef ref;
    std::vector<uint8_t> attrs;
    if (rng.NextBool(0.5)) {
      // Up to 6 attributes fit; more is past the server's by-reference cap.
      attrs.resize(rng.NextBelow(8) * sizeof(mks::Attribute) + rng.NextBelow(3));
      for (auto& b : attrs) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ref.send_data = attrs.data();
      ref.send_len = static_cast<uint32_t>(attrs.size());
    }
    std::vector<mks::NameListEntry> results(mks::kMaxListResults);
    ref.recv_buf = results.data();
    ref.recv_cap = static_cast<uint32_t>(results.size() * sizeof(mks::NameListEntry));
    if (rng.NextBool(0.7)) {
      mks::NameRequest r;
      const uint64_t op = rng.NextBelow(10);
      r.op = static_cast<mks::NameOp>(op == 9 ? rng.Next() : op);
      FillString(rng, r.name, sizeof(r.name), names);
      FillString(rng, r.attr.key, sizeof(r.attr.key), {"type", "owner"});
      FillString(rng, r.attr.value, sizeof(r.attr.value), {"disk", "net"});
      r.attr_count = rng.NextBool(0.7) ? static_cast<uint32_t>(rng.NextBelow(9))
                                       : static_cast<uint32_t>(rng.Next());
      what << " full op=" << static_cast<uint32_t>(r.op) << " attrs=" << r.attr_count
           << " ref=" << attrs.size();
      mks::NameReply reply;
      (void)Send(env, sys.names_port, Wire(rng, r, 0, what), &reply, &ref, right, what.str());
    } else {
      mks::LiteNameRequest r;
      const uint64_t op = rng.NextBelow(4);
      r.op = static_cast<mks::LiteNameOp>(op == 3 ? rng.Next() : op);
      FillString(rng, r.name, sizeof(r.name), names);
      what << " lite op=" << static_cast<uint32_t>(r.op);
      mks::LiteNameReply reply;
      (void)Send(env, sys.lite_port, Wire(rng, r, 0, what), &reply, nullptr, right, what.str());
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // Canaries: both services still register and resolve, to the right port.
  mks::NameClient nc(sys.names_port);
  mks::LiteNameClient lc(sys.lite_port);
  auto canary = env.PortAllocate();
  ASSERT_TRUE(canary.ok());
  mk::Port* want = *env.kernel().ResolvePort(env.task(), *canary);
  const std::string name = "/canary/" + std::to_string(seed);
  ASSERT_EQ(nc.Register(env, name, *canary), base::Status::kOk) << "seed=" << seed;
  ASSERT_EQ(lc.Register(env, name, *canary), base::Status::kOk) << "seed=" << seed;
  for (const base::Result<mk::PortName>& got : {nc.Resolve(env, name), lc.Resolve(env, name)}) {
    ASSERT_TRUE(got.ok()) << "seed=" << seed;
    EXPECT_EQ(*env.kernel().ResolvePort(env.task(), *got), want) << "seed=" << seed;
  }
  EXPECT_EQ(env.kernel().CheckInvariants(), 0u) << "seed=" << seed;
}

void NicCampaign(mk::Env& env, System& sys, uint64_t seed) {
  base::Rng rng(seed);
  std::vector<uint8_t> out(hw::Nic::kMaxFrame + 64);
  for (int i = 0; i < kRequestsPerSeed; ++i) {
    std::ostringstream what;
    what << "seed=" << seed << " nic request " << i;
    drv::NicRequest r;
    const uint64_t op = rng.NextBelow(4);
    r.op = static_cast<drv::NicOp>(op == 3 ? rng.Next() : op);
    r.len = static_cast<uint32_t>(rng.Next());
    std::vector<uint8_t> frame(rng.NextBool(0.9) ? rng.NextBelow(hw::Nic::kMaxFrame + 1)
                                                 : hw::Nic::kMaxFrame + rng.NextInRange(1, 64),
                               static_cast<uint8_t>(i));
    what << " op=" << static_cast<uint32_t>(r.op) << " frame=" << frame.size();
    mk::RpcRef ref;
    ref.send_data = frame.empty() ? nullptr : frame.data();
    ref.send_len = static_cast<uint32_t>(frame.size());
    ref.recv_buf = out.data();
    ref.recv_cap = static_cast<uint32_t>(out.size());
    if (r.op == drv::NicOp::kRecv) {
      // A receive waits for a frame; this client gives up after 1 ms, and
      // the driver must not lose the next frame to it.
      drv::NicReply reply;
      const base::Status st = env.RpcCall(sys.nic_port, &r, sizeof(r), &reply, sizeof(reply),
                                          nullptr, &ref, nullptr, 0, nullptr, 1'000'000);
      EXPECT_TRUE(IsTyped(st)) << what.str() << ": " << base::StatusName(st);
      continue;
    }
    drv::NicReply reply;
    (void)Send(env, sys.nic_port, Wire(rng, r, 0, what), &reply, &ref, nullptr, what.str());
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // Canary: a frame sent comes back, behind whatever the campaign queued.
  drv::NicClient nic(sys.nic_port);
  std::vector<uint8_t> canary(96);
  for (size_t i = 0; i < canary.size(); ++i) {
    canary[i] = static_cast<uint8_t>(0xc0 ^ i);
  }
  ASSERT_EQ(nic.Send(env, canary.data(), static_cast<uint32_t>(canary.size())),
            base::Status::kOk);
  bool echoed = false;
  for (int i = 0; i < kRequestsPerSeed && !echoed; ++i) {
    drv::NicRequest recv{drv::NicOp::kRecv, 0};
    drv::NicReply reply;
    mk::RpcRef ref;
    ref.recv_buf = out.data();
    ref.recv_cap = static_cast<uint32_t>(out.size());
    ASSERT_EQ(env.RpcCall(sys.nic_port, &recv, sizeof(recv), &reply, sizeof(reply), nullptr,
                          &ref, nullptr, 0, nullptr, kDeadlineNs),
              base::Status::kOk)
        << "seed=" << seed << ": the canary frame never came back";
    echoed = reply.len == canary.size() &&
             std::equal(canary.begin(), canary.end(), out.begin());
  }
  EXPECT_TRUE(echoed) << "seed=" << seed;
  EXPECT_EQ(env.kernel().CheckInvariants(), 0u) << "seed=" << seed;
}

// The disk driver's answer to a request as it arrives, with `payload` bytes
// by reference and room for `recv_cap` bytes of reply data.
base::Status DiskWant(const drv::DiskRequest& r, uint64_t payload, uint32_t recv_cap,
                      uint64_t sectors) {
  const auto valid = [sectors](uint64_t lba, uint64_t count) {
    return count != 0 && count <= drv::DiskEngine::kMaxSectors && lba <= sectors &&
           count <= sectors - lba;
  };
  const bool sized = payload == uint64_t{r.count} * hw::Disk::kSectorSize;
  uint64_t reply_bytes = 0;
  switch (r.op) {
    case drv::DiskOp::kInfo:
    case drv::DiskOp::kSync:
      return base::Status::kOk;
    case drv::DiskOp::kRead:
      if (!valid(r.lba, r.count)) {
        return base::Status::kInvalidArgument;
      }
      reply_bytes = uint64_t{r.count} * hw::Disk::kSectorSize;
      break;
    case drv::DiskOp::kWrite:
      return sized && valid(r.lba, r.count) ? base::Status::kOk : base::Status::kInvalidArgument;
    case drv::DiskOp::kWriteRead:
      if (!sized || !valid(r.lba, r.count) || !valid(r.read_lba, 1)) {
        return base::Status::kInvalidArgument;
      }
      reply_bytes = hw::Disk::kSectorSize;
      break;
    default:
      return base::Status::kNotSupported;
  }
  // The kernel refuses a reply larger than the client's buffer.
  return reply_bytes > recv_cap ? base::Status::kTooLarge : base::Status::kOk;
}

void DiskCampaign(mk::Env& env, System& sys, uint64_t seed) {
  base::Rng rng(seed);
  const uint64_t sectors = sys.raw_disk->num_sectors();
  constexpr uint32_t kMaxRun = drv::DiskEngine::kMaxSectors;
  constexpr uint32_t kMaxRef = kMaxRun * hw::Disk::kSectorSize;  // the loop's bound
  // Extents at and past the disk's end and the driver's run limit, and
  // counts whose byte size wraps 32 bits.
  const uint64_t lbas[] = {0, sectors - 1, sectors - kMaxRun, sectors, sectors + 1,
                           uint64_t{1} << 32, ~uint64_t{0} - 3, ~uint64_t{0}};
  const uint32_t counts[] = {0, 1, kMaxRun, kMaxRun + 1, 1u << 23, (1u << 23) + 1, UINT32_MAX};
  std::vector<uint8_t> out(kMaxRef + 4096);
  std::vector<uint8_t> data(kMaxRef + 4096, 0xd5);
  for (int i = 0; i < kRequestsPerSeed; ++i) {
    std::ostringstream what;
    what << "seed=" << seed << " disk request " << i;
    drv::DiskRequest r;
    const uint64_t op = rng.NextBelow(7);  // 0 and 6 name no op
    r.op = static_cast<drv::DiskOp>(op == 6 ? rng.Next() : op);
    r.lba = rng.NextBool(0.6) ? rng.NextBelow(sectors) : lbas[rng.NextBelow(std::size(lbas))];
    r.count = rng.NextBool(0.6) ? static_cast<uint32_t>(rng.NextInRange(1, kMaxRun))
                                : counts[rng.NextBelow(std::size(counts))];
    // kWriteRead's read sector: inside the run, outside it, or off the disk.
    const uint64_t roll = rng.NextBelow(4);
    r.read_lba = static_cast<uint32_t>(
        roll == 0   ? r.lba + rng.NextBelow(std::max<uint32_t>(r.count, 1))
        : roll == 1 ? rng.NextBelow(sectors)
        : roll == 2 ? sectors + rng.NextBelow(2)
                    : rng.Next());
    // A write's payload: its run, its run wrapped at 32 bits, a few bytes
    // short or long, none, or past the loop's bound.
    const uint64_t run = uint64_t{r.count} * hw::Disk::kSectorSize;
    const uint64_t payloads[] = {run, static_cast<uint32_t>(run), run - 1, run + 1, 0,
                                 kMaxRef + 1};
    const uint64_t payload = std::min<uint64_t>(payloads[rng.NextBelow(std::size(payloads))],
                                                data.size());
    const uint32_t recv_cap = rng.NextBool(0.8) ? static_cast<uint32_t>(out.size())
                                                : static_cast<uint32_t>(rng.NextBelow(1024));
    // Most calls wait; some give up while the device is still busy.
    const bool short_deadline = rng.NextBool(0.15);
    const std::vector<uint8_t> wire = Wire(rng, r, 0, what);
    drv::DiskRequest seen;
    std::memset(static_cast<void*>(&seen), 0, sizeof(seen));
    std::memcpy(&seen, wire.data(), std::min(wire.size(), sizeof(seen)));
    const base::Status want = wire.size() > sizeof(seen) || payload > kMaxRef
                                  ? base::Status::kTooLarge
                                  : DiskWant(seen, payload, recv_cap, sectors);
    what << " op=" << static_cast<uint32_t>(seen.op) << " lba=" << seen.lba
         << " count=" << seen.count << " read_lba=" << seen.read_lba << " payload=" << payload
         << " recv_cap=" << recv_cap << (short_deadline ? " short" : "");
    mk::RpcRef ref;
    ref.send_data = payload == 0 ? nullptr : data.data();
    ref.send_len = static_cast<uint32_t>(payload);
    ref.recv_buf = out.data();
    ref.recv_cap = recv_cap;
    drv::DiskReply reply;
    if (short_deadline) {
      const base::Status st =
          env.RpcCall(sys.disk_port, wire.data(), static_cast<uint32_t>(wire.size()), &reply,
                      sizeof(reply), nullptr, &ref, nullptr, 0, nullptr,
                      rng.NextInRange(1, 400'000));
      const base::Status got =
          st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
      EXPECT_TRUE(got == want || got == base::Status::kTimedOut)
          << what.str() << ": " << base::StatusName(got);
    } else {
      const base::Status got = Send(env, sys.disk_port, wire, &reply, &ref, nullptr, what.str());
      EXPECT_EQ(got, want) << what.str() << ": " << base::StatusName(got);
      if (got == base::Status::kOk && seen.op == drv::DiskOp::kInfo) {
        EXPECT_EQ(reply.sectors, sectors) << what.str();
      }
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // Canary: a sector written through the driver reads back.
  drv::RpcBlockStore store(sys.disk_port, sectors);
  std::vector<uint8_t> sector(hw::Disk::kSectorSize);
  for (size_t i = 0; i < sector.size(); ++i) {
    sector[i] = static_cast<uint8_t>(seed + i);
  }
  std::vector<uint8_t> back(sector.size());
  ASSERT_EQ(store.Write(env, 7, 1, sector.data()), base::Status::kOk) << "seed=" << seed;
  ASSERT_EQ(store.Read(env, 7, 1, back.data()), base::Status::kOk) << "seed=" << seed;
  EXPECT_EQ(back, sector) << "seed=" << seed;
  EXPECT_EQ(env.kernel().CheckInvariants(), 0u) << "seed=" << seed;
}

// A second OS/2 client parks a request on the held semaphore `sem`, and its
// task is terminated while it waits.
void ParkAndDie(mk::Env& env, System& sys, uint32_t sem) {
  mk::Task* victim = env.kernel().CreateTask("os2-victim");
  const mk::PortName port = sys.os2->GrantTo(*victim);
  env.kernel().CreateThread(victim, "victim", [port, sem](mk::Env& venv) {
    pers::Os2Request r;
    r.op = pers::Os2Op::kRequestSem;
    r.value = sem;
    pers::Os2Reply reply;
    (void)venv.RpcCall(port, &r, sizeof(r), &reply, sizeof(reply));
  });
  ASSERT_EQ(env.SleepNs(1'000'000), base::Status::kOk);  // the victim parks
  env.kernel().TerminateTask(victim);
}

void Os2Campaign(mk::Env& env, System& sys, uint64_t seed) {
  base::Rng rng(seed);
  // The model: each semaphore's id by name, and whether this client holds
  // it. Nobody else ever does: the victims only park, and die parked.
  std::map<std::string, uint32_t> ids;
  std::map<uint32_t, bool> held;
  const std::vector<std::string> names = {"\\SEM32\\A", "\\SEM32\\B", "\\SEM32\\C"};
  for (int i = 0; i < kRequestsPerSeed; ++i) {
    std::ostringstream what;
    what << "seed=" << seed << " os2 request " << i;
    if (i % 25 == 24) {
      for (const auto& [id, mine] : held) {
        if (mine) {
          ParkAndDie(env, sys, id);
          break;
        }
      }
    }
    pers::Os2Request r;
    const uint64_t op = rng.NextBelow(7);  // 0, 1 and 2 name no op
    r.op = static_cast<pers::Os2Op>(op == 6 ? rng.Next() : op);
    if (rng.NextBool(0.8) && !held.empty()) {
      const auto pick = static_cast<int64_t>(rng.NextBelow(held.size()));
      r.value = std::next(held.begin(), pick)->first;
    } else {
      r.value = static_cast<uint32_t>(rng.NextBool(0.5) ? rng.NextBelow(8) : rng.Next());
    }
    FillString(rng, r.name, sizeof(r.name), names);
    const std::vector<uint8_t> wire = Wire(rng, r, 0, what);
    // What the server reads: the bytes that arrive, zeros past them.
    pers::Os2Request seen;
    std::memset(static_cast<void*>(&seen), 0, sizeof(seen));
    std::memcpy(&seen, wire.data(), std::min(wire.size(), sizeof(seen)));
    const auto sem = held.find(seen.value);
    base::Status want = base::Status::kNotSupported;
    bool parks = false;
    if (wire.size() > sizeof(seen)) {
      want = base::Status::kTooLarge;
    } else if (seen.op == pers::Os2Op::kCreateSem) {
      const std::string name(seen.name, strnlen(seen.name, sizeof(seen.name)));
      want = name.size() == sizeof(seen.name) ? base::Status::kInvalidArgument
             : ids.contains(name)             ? base::Status::kAlreadyExists
                                              : base::Status::kOk;
    } else if (seen.op == pers::Os2Op::kRequestSem) {
      want = sem == held.end() ? base::Status::kNotFound : base::Status::kOk;
      parks = sem != held.end() && sem->second;
    } else if (seen.op == pers::Os2Op::kReleaseSem) {
      want = sem == held.end() ? base::Status::kNotFound
             : sem->second     ? base::Status::kOk
                               : base::Status::kPermissionDenied;
    }
    what << " op=" << static_cast<uint32_t>(seen.op) << " value=" << seen.value;
    pers::Os2Reply reply;
    if (parks) {
      // This client holds the semaphore: the request waits until its
      // deadline passes, and the server keeps the token it can no longer
      // answer.
      const base::Status st =
          env.RpcCall(sys.os2_port, wire.data(), static_cast<uint32_t>(wire.size()), &reply,
                      sizeof(reply), nullptr, nullptr, nullptr, 0, nullptr, 1'000'000);
      EXPECT_EQ(st, base::Status::kTimedOut) << what.str();
    } else {
      const base::Status st = Send(env, sys.os2_port, wire, &reply, nullptr, nullptr, what.str());
      EXPECT_EQ(st, want) << what.str() << ": " << base::StatusName(st);
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
    if (want != base::Status::kOk || parks) {
      continue;
    }
    if (seen.op == pers::Os2Op::kCreateSem) {
      EXPECT_EQ(held.count(reply.value), 0u) << what.str();
      ids.emplace(std::string(seen.name), reply.value);
      held[reply.value] = false;
    } else {
      // A release frees it: its waiters are this client's own timed-out
      // requests and dead victims.
      sem->second = seen.op == pers::Os2Op::kRequestSem;
    }
  }
  // Canary: a fresh semaphore is created, taken, released and taken again.
  const auto call = [&](pers::Os2Op op, uint32_t value, pers::Os2Reply* reply) {
    pers::Os2Request r;
    r.op = op;
    r.value = value;
    std::strncpy(r.name, "\\SEM32\\CANARY", sizeof(r.name) - 1);
    std::vector<uint8_t> wire(sizeof(r));
    std::memcpy(wire.data(), &r, sizeof(r));
    return Send(env, sys.os2_port, wire, reply, nullptr, nullptr, "seed=" + std::to_string(seed));
  };
  pers::Os2Reply created;
  ASSERT_EQ(call(pers::Os2Op::kCreateSem, 0, &created), base::Status::kOk) << "seed=" << seed;
  pers::Os2Reply reply;
  for (const pers::Os2Op op : {pers::Os2Op::kRequestSem, pers::Os2Op::kReleaseSem,
                               pers::Os2Op::kRequestSem, pers::Os2Op::kReleaseSem}) {
    EXPECT_EQ(call(op, created.value, &reply), base::Status::kOk)
        << "seed=" << seed << " canary op " << static_cast<uint32_t>(op);
  }
  EXPECT_EQ(env.kernel().CheckInvariants(), 0u) << "seed=" << seed;
}

void RunSeeds(void (*campaign)(mk::Env&, System&, uint64_t)) {
  for (uint64_t seed : props::SeedsUnderTest()) {
    System sys;
    sys.Run([&](mk::Env& env) { campaign(env, sys, seed); });
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(HostileClientPropsTest, FileServerAnswersEveryRequestWithAStatus) { RunSeeds(&FsCampaign); }

TEST(HostileClientPropsTest, NameServersAnswerEveryRequestWithAStatus) {
  RunSeeds(&NamingCampaign);
}

TEST(HostileClientPropsTest, NicDriverAnswersEveryRequestWithAStatus) { RunSeeds(&NicCampaign); }

TEST(HostileClientPropsTest, DiskDriverAnswersEveryRequestWithAStatus) {
  RunSeeds(&DiskCampaign);
}

TEST(HostileClientPropsTest, Os2ServerAnswersEveryRequestWithAStatus) { RunSeeds(&Os2Campaign); }

}  // namespace
