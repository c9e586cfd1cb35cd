#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TEST_F(KernelTest, PortAllocateGivesReceiveRight) {
  Task* task = kernel_.CreateTask("t");
  auto name = kernel_.PortAllocate(*task);
  ASSERT_TRUE(name.ok());
  auto port = task->port_space().LookupReceive(*name);
  ASSERT_TRUE(port.ok());
  EXPECT_EQ((*port)->receiver(), task);
}

TEST_F(KernelTest, PortAllocateWithTheHeapFullIsResourceShortage) {
  // A port takes 128 B of a kernel heap that never frees: a full heap
  // answers kResourceShortage instead of aborting the host.
  Task* task = kernel_.CreateTask("t");
  FillKernelHeap(kernel_);
  const size_t ports = task->port_space().size();
  EXPECT_EQ(kernel_.PortAllocate(*task).status(), base::Status::kResourceShortage);
  EXPECT_EQ(task->port_space().size(), ports);
}

TEST_F(KernelTest, PortNamesAreTaskLocal) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto na = kernel_.PortAllocate(*a);
  ASSERT_TRUE(na.ok());
  // The same numeric name means nothing in another task's space.
  EXPECT_EQ(b->port_space().LookupReceive(*na).status(), base::Status::kInvalidName);
}

TEST_F(KernelTest, MakeSendRightAllowsSending) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  ASSERT_TRUE(recv.ok());
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  ASSERT_TRUE(send.ok());
  auto port = client->port_space().LookupSendable(*send);
  ASSERT_TRUE(port.ok());
  auto sp = kernel_.ResolvePort(*server, *recv);
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(*port, *sp);
}

TEST_F(KernelTest, SendRightsCoalesceUnderOneName) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto s1 = kernel_.MakeSendRight(*server, *recv, *client);
  auto s2 = kernel_.MakeSendRight(*server, *recv, *client);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);  // Mach semantics: one name per port for send rights
  auto right = client->port_space().Lookup(*s1);
  ASSERT_TRUE(right.ok());
  EXPECT_EQ((*right)->refs, 2u);
  EXPECT_EQ(client->port_space().Release(*s1), base::Status::kOk);
  EXPECT_TRUE(client->port_space().Lookup(*s1).ok());  // one ref left
  EXPECT_EQ(client->port_space().Release(*s1), base::Status::kOk);
  EXPECT_FALSE(client->port_space().Lookup(*s1).ok());
}

TEST_F(KernelTest, PortDestroyMakesItDead) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  ASSERT_TRUE(send.ok());
  ASSERT_EQ(kernel_.PortDestroy(*server, *recv), base::Status::kOk);
  EXPECT_EQ(client->port_space().LookupSendable(*send).status(), base::Status::kPortDead);
}

TEST_F(KernelTest, DestroyedPortFailsRpcCallers) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  base::Status observed = base::Status::kOk;
  kernel_.CreateThread(client, "caller", [&](Env& env) {
    uint32_t req = 1;
    uint32_t rep = 0;
    observed = env.RpcCall(*send, &req, sizeof(req), &rep, sizeof(rep));
  });
  kernel_.CreateThread(server, "destroyer", [&](Env& env) {
    env.Yield();  // let the caller queue first
    EXPECT_EQ(env.kernel().PortDestroy(*server, *recv), base::Status::kOk);
  });
  kernel_.Run();
  EXPECT_EQ(observed, base::Status::kPortDead);
}

TEST_F(KernelTest, LookupWrongRightTypeFails) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  ASSERT_TRUE(send.ok());
  EXPECT_EQ(client->port_space().LookupReceive(*send).status(), base::Status::kInvalidRight);
}

TEST_F(KernelTest, ThreadSelfIsStable) {
  Task* task = kernel_.CreateTask("t");
  PortName first = kNullPort;
  PortName second = kNullPort;
  kernel_.CreateThread(task, "w", [&](Env& env) {
    first = env.ThreadSelf();
    second = env.ThreadSelf();
  });
  kernel_.Run();
  EXPECT_NE(first, kNullPort);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mk
