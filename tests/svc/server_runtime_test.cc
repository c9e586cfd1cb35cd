// Every server runs on mk::ServerLoop: an oversized request queued on a
// server's port fails its own caller with kTooLarge and leaves the loop
// serving. A receive loop that treats kTooLarge as fatal leaves its port alive
// with nobody receiving on it, so every later caller times out (or, without a
// deadline, blocks forever).
//
// One case per receive loop. The clients outrank every server thread, so all
// three calls queue on the port before the server first receives: an
// oversized inline request, an oversized (or, for a server that takes none,
// unexpected) by-reference payload, and a well-formed canary with a deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/drv/disk_driver.h"
#include "src/drv/nic_driver.h"
#include "src/mks/naming/lite_name_server.h"
#include "src/mks/naming/name_server.h"
#include "src/mks/pager/default_pager.h"
#include "src/pers/os2/os2.h"
#include "src/svc/fs/file_server.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

constexpr uint64_t kDeadlineNs = 50'000'000;
constexpr int kClientPriority = mk::Thread::kDefaultPriority + 8;  // above every server

// The server under test: its tasks (torn down at the end) and service port.
struct Target {
  std::vector<mk::Task*> tasks;
  mk::PortName port = mk::kNullPort;
};

class ServerRuntimeTest;

struct LoopCase {
  std::string name;       // the loop's name: the canary counts in server.<name>.ops
  uint32_t req_size = 0;  // sizeof the server's request struct
  uint32_t max_ref = 0;   // the loop's by-reference bound
  std::vector<uint8_t> canary;
  std::function<Target(ServerRuntimeTest&)> build;
};

void PrintTo(const LoopCase& c, std::ostream* os) { *os << c.name; }

template <typename Req>
std::vector<uint8_t> Bytes(const Req& req) {
  const auto* p = reinterpret_cast<const uint8_t*>(&req);
  return std::vector<uint8_t>(p, p + sizeof(req));
}

class ServerRuntimeTest : public mk::KernelTest, public ::testing::WithParamInterface<LoopCase> {
 public:
  template <typename T>
  T* Keep(std::unique_ptr<T> object) {
    T* raw = object.get();
    keep_.push_back(std::shared_ptr<void>(std::move(object)));
    return raw;
  }
  hw::Disk* AddDisk() {
    return static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("disk0", 3)));
  }
  hw::Nic* AddNic() {
    return static_cast<hw::Nic*>(machine_.AddDevice(std::make_unique<hw::Nic>("nic0", 5)));
  }
  mk::Kernel& kernel() { return kernel_; }

 private:
  // Servers die before the kernel (base-class members outlive these).
  std::vector<std::shared_ptr<void>> keep_;
};

TEST_P(ServerRuntimeTest, OversizedQueuedCallsLeaveTheLoopServing) {
  const LoopCase& c = GetParam();
  const Target target = c.build(*this);
  mk::Task* client = kernel_.CreateTask("client");
  auto send = kernel_.MakeSendRight(*target.tasks.front(), target.port, *client);
  ASSERT_TRUE(send.ok());

  // The oversized inline request still leads with a valid op code.
  std::vector<uint8_t> big_inline(c.req_size + 8, 0);
  std::copy(c.canary.begin(), c.canary.end(), big_inline.begin());
  std::vector<uint8_t> big_ref(c.max_ref + 1, 0x5a);
  base::Status inline_st = base::Status::kOk;
  base::Status ref_st = base::Status::kOk;
  base::Status canary_st = base::Status::kInternal;
  int done = 0;
  const auto finish = [&] {
    if (++done == 3) {
      for (mk::Task* task : target.tasks) {
        kernel_.TerminateTask(task);
      }
    }
  };
  kernel_.CreateThread(
      client, "oversized-inline",
      [&, port = *send](mk::Env& env) {
        uint8_t reply[256];
        inline_st = env.RpcCall(port, big_inline.data(), static_cast<uint32_t>(big_inline.size()),
                                reply, sizeof(reply), nullptr, nullptr, nullptr, 0, nullptr,
                                kDeadlineNs);
        finish();
      },
      kClientPriority);
  kernel_.CreateThread(
      client, "oversized-ref",
      [&, port = *send](mk::Env& env) {
        uint8_t reply[256];
        mk::RpcRef ref;
        ref.send_data = big_ref.data();
        ref.send_len = static_cast<uint32_t>(big_ref.size());
        ref_st = env.RpcCall(port, c.canary.data(), static_cast<uint32_t>(c.canary.size()), reply,
                             sizeof(reply), nullptr, &ref, nullptr, 0, nullptr, kDeadlineNs);
        finish();
      },
      kClientPriority);
  kernel_.CreateThread(
      client, "canary",
      [&, port = *send](mk::Env& env) {
        uint8_t reply[256];
        canary_st = env.RpcCall(port, c.canary.data(), static_cast<uint32_t>(c.canary.size()),
                                reply, sizeof(reply), nullptr, nullptr, nullptr, 0, nullptr,
                                kDeadlineNs);
        finish();
      },
      kClientPriority);
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(inline_st, base::Status::kTooLarge);
  EXPECT_EQ(ref_st, base::Status::kTooLarge);
  EXPECT_EQ(canary_st, base::Status::kOk) << "the loop must keep serving after kTooLarge";
  EXPECT_EQ(kernel_.tracer().metrics().Counter("server." + c.name + ".ops"), 1u);
}

// Every loop answers with reply-and-receive: the trap that carries a reply
// also parks the server again before the replied client runs. So a client's
// back-to-back call finds the server waiting (a 0 queue-wait sample; the
// first call, made before the server ever received, queued) and the round
// trip costs two kernel entries, the call and the server's one trap, where
// reply-then-receive costs three.
TEST_P(ServerRuntimeTest, BackToBackCallFindsTheServerParked) {
  const LoopCase& c = GetParam();
  kernel_.tracer().Enable();
  const Target target = c.build(*this);
  mk::Task* client = kernel_.CreateTask("client");
  auto send = kernel_.MakeSendRight(*target.tasks.front(), target.port, *client);
  ASSERT_TRUE(send.ok());
  base::Status first = base::Status::kInternal;
  base::Status second = base::Status::kInternal;
  uint64_t round_trip_entries = 0;
  kernel_.CreateThread(
      client, "canary",
      [&, port = *send](mk::Env& env) {
        uint8_t reply[256];
        const auto call = [&] {
          return env.RpcCall(port, c.canary.data(), static_cast<uint32_t>(c.canary.size()),
                             reply, sizeof(reply), nullptr, nullptr, nullptr, 0, nullptr,
                             kDeadlineNs);
        };
        first = call();
        const uint64_t entries = kernel_.kernel_entries();
        second = call();
        round_trip_entries = kernel_.kernel_entries() - entries;
        for (mk::Task* task : target.tasks) {
          kernel_.TerminateTask(task);
        }
      },
      kClientPriority);
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(first, base::Status::kOk);
  EXPECT_EQ(second, base::Status::kOk);
  const mk::trace::Histogram& wait = kernel_.tracer().metrics().Hist(
      "mk.rpc.queue_wait_cycles." + target.tasks.front()->name());
  EXPECT_EQ(wait.count(), 2u);
  EXPECT_GT(wait.max(), 0u) << "the first call queued before the server's first receive";
  EXPECT_EQ(wait.min(), 0u) << "the second call must find the server already parked";
  EXPECT_EQ(round_trip_entries, 2u);
}

std::vector<LoopCase> Cases() {
  std::vector<LoopCase> cases;
  {
    FsRequest sync;
    sync.op = FsOp::kSync;
    cases.push_back({"fs", sizeof(FsRequest), kFsMaxIo + kFsMaxExtents * sizeof(FsExtent),
                     Bytes(sync), [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("file-server");
                       auto* fs = t.Keep(std::make_unique<FileServer>(t.kernel(), task));
                       return Target{{task}, fs->receive_port()};
                     }});
  }
  {
    mk::PagerRequest terminate;
    terminate.op = mk::PagerOp::kObjectTerminate;
    terminate.object_id = 12345;
    cases.push_back({"fs_pager", sizeof(mk::PagerRequest), hw::kPageSize, Bytes(terminate),
                     [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("file-server");
                       auto* fs = t.Keep(std::make_unique<FileServer>(t.kernel(), task));
                       fs->EnableMapping();
                       return Target{{task}, fs->pager_port()};
                     }});
  }
  {
    drv::DiskRequest info{.op = drv::DiskOp::kInfo};
    cases.push_back({"disk", sizeof(drv::DiskRequest),
                     drv::DiskEngine::kMaxSectors * hw::Disk::kSectorSize, Bytes(info),
                     [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("disk-driver");
                       auto* disk = t.Keep(std::make_unique<drv::DiskDriver>(
                           t.kernel(), task, t.AddDisk(), nullptr));
                       return Target{{task}, disk->service_port()};
                     }});
  }
  {
    drv::NicRequest send{drv::NicOp::kSend, 0};
    cases.push_back({"nic", sizeof(drv::NicRequest), hw::Nic::kMaxFrame, Bytes(send),
                     [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("nic-driver");
                       auto* nic = t.Keep(std::make_unique<drv::NicDriver>(t.kernel(), task,
                                                                           t.AddNic(), nullptr));
                       return Target{{task}, nic->service_port()};
                     }});
  }
  {
    pers::Os2Request create;
    create.op = pers::Os2Op::kCreateSem;
    std::strncpy(create.name, "canary", sizeof(create.name) - 1);
    cases.push_back({"os2", sizeof(pers::Os2Request), 0, Bytes(create), [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("os2-server");
                       auto* os2 = t.Keep(std::make_unique<pers::Os2Server>(t.kernel(), task));
                       return Target{{task}, os2->receive_port()};
                     }});
  }
  {
    mks::NameRequest resolve;
    resolve.op = mks::NameOp::kResolve;
    resolve.SetName("/canary");
    cases.push_back({"naming", sizeof(mks::NameRequest),
                     sizeof(mks::Attribute) * mks::kMaxAttrsPerEntry, Bytes(resolve),
                     [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("mks-naming");
                       auto* ns = t.Keep(std::make_unique<mks::NameServer>(t.kernel(), task));
                       return Target{{task}, ns->receive_port()};
                     }});
  }
  {
    mks::LiteNameRequest resolve;
    resolve.op = mks::LiteNameOp::kResolve;
    resolve.SetName("/canary");
    cases.push_back({"naming_lite", sizeof(mks::LiteNameRequest), 0, Bytes(resolve),
                     [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("mks-naming-lite");
                       auto* ns = t.Keep(std::make_unique<mks::LiteNameServer>(t.kernel(), task));
                       return Target{{task}, ns->receive_port()};
                     }});
  }
  {
    mk::PagerRequest setup;
    setup.op = mk::PagerOp::kObjectSetup;
    cases.push_back({"pager", sizeof(mk::PagerRequest), hw::kPageSize, Bytes(setup),
                     [](ServerRuntimeTest& t) {
                       mk::Task* task = t.kernel().CreateTask("default-pager");
                       auto* pager = t.Keep(std::make_unique<mks::DefaultPager>(
                           t.kernel(), task,
                           std::make_unique<mks::BackdoorBlockStore>(t.AddDisk())));
                       return Target{{task}, pager->receive_port()};
                     }});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EveryLoop, ServerRuntimeTest, ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<LoopCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace svc
