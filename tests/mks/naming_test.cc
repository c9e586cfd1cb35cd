#include "src/mks/naming/name_server.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "src/mks/naming/lite_name_server.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mks {
namespace {

class NamingTest : public mk::KernelTest {
 protected:
  NamingTest() {
    ns_task_ = kernel_.CreateTask("mks-naming");
    server_ = std::make_unique<NameServer>(kernel_, ns_task_);
    client_task_ = kernel_.CreateTask("client");
    service_ = server_->GrantTo(*client_task_);
  }

  mk::Task* ns_task_;
  std::unique_ptr<NameServer> server_;
  mk::Task* client_task_;
  mk::PortName service_;
};

TEST_F(NamingTest, RegisterAndResolveGrantsRight) {
  mk::Port* registered = nullptr;
  mk::Port* resolved = nullptr;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto my_port = env.PortAllocate();
    ASSERT_TRUE(my_port.ok());
    registered = *kernel_.ResolvePort(env.task(), *my_port);
    ASSERT_EQ(nc.Register(env, "/svc/echo", *my_port), base::Status::kOk);
    auto got = nc.Resolve(env, "/svc/echo");
    ASSERT_TRUE(got.ok());
    resolved = *kernel_.ResolvePort(env.task(), *got);
    server_->Stop();
  });
  kernel_.Run();
  EXPECT_NE(registered, nullptr);
  EXPECT_EQ(registered, resolved);
  EXPECT_EQ(server_->registrations(), 1u);
}

TEST_F(NamingTest, ResolveMissingFails) {
  base::Status st = base::Status::kOk;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    st = nc.Resolve(env, "/no/such/name").status();
    server_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(st, base::Status::kNotFound);
}

TEST_F(NamingTest, DuplicateRegistrationRejected) {
  base::Status second = base::Status::kOk;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto p = env.PortAllocate();
    ASSERT_EQ(nc.Register(env, "/svc/dup", *p), base::Status::kOk);
    second = nc.Register(env, "/svc/dup", *p);
    server_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(second, base::Status::kAlreadyExists);
}

TEST_F(NamingTest, ListReturnsDirectChildrenOnly) {
  std::vector<std::string> names;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto p = env.PortAllocate();
    ASSERT_EQ(nc.Register(env, "/dev/disk0", *p), base::Status::kOk);
    ASSERT_EQ(nc.Register(env, "/dev/tty0", *p), base::Status::kOk);
    ASSERT_EQ(nc.Register(env, "/dev/net/le0", *p), base::Status::kOk);
    ASSERT_EQ(nc.Register(env, "/svc/fs", *p), base::Status::kOk);
    auto got = nc.List(env, "/dev");
    ASSERT_TRUE(got.ok());
    names = *got;
    server_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(names, (std::vector<std::string>{"/dev/disk0", "/dev/tty0"}));
}

TEST_F(NamingTest, AttributesAndSearch) {
  std::vector<std::string> found;
  std::string fetched;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto p = env.PortAllocate();
    Attribute a;
    std::strncpy(a.key, "class", sizeof(a.key) - 1);
    std::strncpy(a.value, "block", sizeof(a.value) - 1);
    ASSERT_EQ(nc.Register(env, "/dev/disk0", *p, {a}), base::Status::kOk);
    ASSERT_EQ(nc.Register(env, "/dev/tty0", *p), base::Status::kOk);
    ASSERT_EQ(nc.SetAttr(env, "/dev/tty0", "class", "char"), base::Status::kOk);
    auto s = nc.Search(env, "class", "block");
    ASSERT_TRUE(s.ok());
    found = *s;
    auto g = nc.GetAttr(env, "/dev/tty0", "class");
    ASSERT_TRUE(g.ok());
    fetched = *g;
    server_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(found, (std::vector<std::string>{"/dev/disk0"}));
  EXPECT_EQ(fetched, "char");
}

TEST_F(NamingTest, WatchDeliversNamespaceEvents) {
  uint32_t event_kind = 0;
  std::string event_name;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto notify = env.PortAllocate();
    ASSERT_TRUE(notify.ok());
    ASSERT_EQ(nc.Watch(env, "/svc", *notify), base::Status::kOk);
    auto p = env.PortAllocate();
    ASSERT_EQ(nc.Register(env, "/svc/newbie", *p), base::Status::kOk);
    mk::MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(*notify, &msg), base::Status::kOk);
    NameEvent ev;
    std::memcpy(&ev, msg.inline_data.data(), sizeof(ev));
    event_kind = ev.kind;
    event_name = ev.name;
    server_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(event_kind, 1u);
  EXPECT_EQ(event_name, "/svc/newbie");
}

TEST_F(NamingTest, LiteServiceResolvesCheaperThanFull) {
  mk::Task* lite_task = kernel_.CreateTask("mks-naming-lite");
  LiteNameServer lite(kernel_, lite_task);
  mk::PortName lite_service = lite.GrantTo(*client_task_);
  uint64_t full_cycles = 0;
  uint64_t lite_cycles = 0;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    LiteNameClient lc(lite_service);
    auto p = env.PortAllocate();
    ASSERT_EQ(nc.Register(env, "/deeply/nested/service/path/entry", *p), base::Status::kOk);
    ASSERT_EQ(lc.Register(env, "/deeply/nested/service/path/entry", *p), base::Status::kOk);
    // Warm.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(nc.Resolve(env, "/deeply/nested/service/path/entry").ok());
      ASSERT_TRUE(lc.Resolve(env, "/deeply/nested/service/path/entry").ok());
    }
    uint64_t c0 = env.kernel().cpu().cycles();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(nc.Resolve(env, "/deeply/nested/service/path/entry").ok());
    }
    full_cycles = env.kernel().cpu().cycles() - c0;
    c0 = env.kernel().cpu().cycles();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(lc.Resolve(env, "/deeply/nested/service/path/entry").ok());
    }
    lite_cycles = env.kernel().cpu().cycles() - c0;
    server_->Stop();
    lite.Stop();
  });
  kernel_.Run();
  EXPECT_GT(full_cycles, lite_cycles * 11 / 10)
      << "the X.500-style service must cost measurably more than the lite one";
}

// Hostile input: a request whose bytes after `op` are all non-zero, so the
// fixed-size name field holds no NUL. Each server answers kInvalidArgument
// without reading past the field, then still serves a well-formed canary.
TEST_F(NamingTest, UnterminatedNameIsInvalidArgument) {
  mk::Task* lite_task = kernel_.CreateTask("mks-naming-lite");
  LiteNameServer lite(kernel_, lite_task);
  mk::PortName lite_service = lite.GrantTo(*client_task_);
  int32_t full_status = 0;
  int32_t lite_status = 0;
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameRequest full;
    full.op = NameOp::kResolve;
    std::memset(full.name, 'x', sizeof(full) - offsetof(NameRequest, name));
    NameReply full_reply;
    ASSERT_EQ(env.RpcCall(service_, &full, sizeof(full), &full_reply, sizeof(full_reply)),
              base::Status::kOk);
    full_status = full_reply.status;

    LiteNameRequest bare;
    bare.op = LiteNameOp::kResolve;
    std::memset(bare.name, 'x', sizeof(bare) - offsetof(LiteNameRequest, name));
    LiteNameReply lite_reply;
    ASSERT_EQ(env.RpcCall(lite_service, &bare, sizeof(bare), &lite_reply, sizeof(lite_reply)),
              base::Status::kOk);
    lite_status = lite_reply.status;

    NameClient nc(service_);
    LiteNameClient lc(lite_service);
    auto p = env.PortAllocate();
    ASSERT_EQ(nc.Register(env, "/svc/canary", *p), base::Status::kOk);
    EXPECT_TRUE(nc.Resolve(env, "/svc/canary").ok());
    ASSERT_EQ(lc.Register(env, "/svc/canary", *p), base::Status::kOk);
    EXPECT_TRUE(lc.Resolve(env, "/svc/canary").ok());
    server_->Stop();
    lite.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(full_status, static_cast<int32_t>(base::Status::kInvalidArgument));
  EXPECT_EQ(lite_status, static_cast<int32_t>(base::Status::kInvalidArgument));
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

TEST_F(NamingTest, RegisterWithTheKernelHeapFullIsResourceShortage) {
  // A node takes 128 B of kernel heap. On a full heap the register answers
  // kResourceShortage and registers nothing (was a host abort, "kernel heap
  // exhausted"); names already registered still resolve.
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto p = env.PortAllocate();
    ASSERT_TRUE(p.ok());
    ASSERT_EQ(nc.Register(env, "/svc/before", *p), base::Status::kOk);
    mk::FillKernelHeap(kernel_);
    EXPECT_EQ(nc.Register(env, "/svc/after", *p), base::Status::kResourceShortage);
    EXPECT_EQ(server_->entry_count(), 1u);
    EXPECT_EQ(server_->registrations(), 1u);
    EXPECT_EQ(nc.Resolve(env, "/svc/after").status(), base::Status::kNotFound);
    EXPECT_TRUE(nc.Resolve(env, "/svc/before").ok());
    server_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(NamingTest, UnregisterUnderAWatchWithTheKernelHeapFullDropsTheNotice) {
  // A notice takes kernel heap for its message buffer. One the heap cannot
  // hold is dropped, as one for a full watcher queue is (was a host abort);
  // the unregister itself succeeds.
  kernel_.CreateThread(client_task_, "c", [&](mk::Env& env) {
    NameClient nc(service_);
    auto notify = env.PortAllocate();
    auto p = env.PortAllocate();
    ASSERT_TRUE(notify.ok());
    ASSERT_TRUE(p.ok());
    ASSERT_EQ(nc.Watch(env, "/svc", *notify), base::Status::kOk);
    ASSERT_EQ(nc.Register(env, "/svc/gone", *p), base::Status::kOk);
    mk::MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(*notify, &msg), base::Status::kOk);
    mk::FillKernelHeap(kernel_);
    EXPECT_EQ(nc.Unregister(env, "/svc/gone"), base::Status::kOk);
    EXPECT_EQ(env.kernel().MachMsgReceive(*notify, &msg, /*timeout_ns=*/0),
              base::Status::kTimedOut);
    EXPECT_EQ(nc.Resolve(env, "/svc/gone").status(), base::Status::kNotFound);
    server_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

}  // namespace
}  // namespace mks
