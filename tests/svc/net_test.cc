#include <gtest/gtest.h>

#include "src/drv/nic_driver.h"
#include "src/svc/net/net_server.h"
#include "src/svc/net/stack.h"
#include "src/svc/registry.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

class NetTest : public mk::KernelTest {
 protected:
  // Builds nic -> driver -> net server (with the chosen engine) -> client.
  void Build(bool fine, bool wrappers) {
    nic_ = static_cast<hw::Nic*>(machine_.AddDevice(std::make_unique<hw::Nic>("nic0", 5)));
    driver_task_ = kernel_.CreateTask("nic-driver");
    driver_ = std::make_unique<drv::NicDriver>(kernel_, driver_task_, nic_, nullptr);
    net_task_ = kernel_.CreateTask("net-server");
    std::unique_ptr<StackEngine> engine;
    if (fine) {
      engine = std::make_unique<FineStack>(kernel_);
    } else {
      engine = std::make_unique<CoarseStack>(kernel_);
    }
    server_ = std::make_unique<NetServer>(kernel_, net_task_, driver_->GrantTo(*net_task_),
                                          std::move(engine), wrappers);
    client_task_ = kernel_.CreateTask("client");
    service_ = server_->GrantTo(*client_task_);
  }

  void RunClient(std::function<void(mk::Env&, NetClient&)> body) {
    kernel_.CreateThread(client_task_, "client", [this, body](mk::Env& env) {
      NetClient net(service_);
      body(env, net);
      server_->Stop();
      driver_->Stop();
      kernel_.TerminateTask(net_task_);
      kernel_.TerminateTask(driver_task_);
    });
    ASSERT_EQ(kernel_.Run(), 0u);
  }

  hw::Nic* nic_ = nullptr;
  mk::Task* driver_task_ = nullptr;
  std::unique_ptr<drv::NicDriver> driver_;
  mk::Task* net_task_ = nullptr;
  std::unique_ptr<NetServer> server_;
  mk::Task* client_task_ = nullptr;
  mk::PortName service_ = mk::kNullPort;
};

TEST_F(NetTest, DatagramLoopbackCoarse) {
  Build(/*fine=*/false, /*wrappers=*/false);
  RunClient([&](mk::Env& env, NetClient& net) {
    ASSERT_EQ(net.Bind(env, 9000), base::Status::kOk);
    const char msg[] = "udp-ish datagram";
    ASSERT_EQ(net.SendTo(env, 0x7f000001, 9000, 1234, msg, sizeof(msg)), base::Status::kOk);
    char out[64] = {};
    uint32_t from_addr = 0;
    uint16_t from_port = 0;
    auto len = net.RecvFrom(env, 9000, out, sizeof(out), &from_addr, &from_port);
    ASSERT_TRUE(len.ok());
    EXPECT_EQ(*len, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(from_port, 1234);
  });
  EXPECT_EQ(server_->datagrams_sent(), 1u);
  EXPECT_EQ(server_->datagrams_delivered(), 1u);
}

TEST_F(NetTest, DatagramLoopbackFineGrainedWithWrappers) {
  Build(/*fine=*/true, /*wrappers=*/true);
  RunClient([&](mk::Env& env, NetClient& net) {
    ASSERT_EQ(net.Bind(env, 7), base::Status::kOk);
    for (int i = 0; i < 3; ++i) {
      uint32_t payload = 100 + i;
      ASSERT_EQ(net.SendTo(env, 0x7f000001, 7, 7, &payload, sizeof(payload)),
                base::Status::kOk);
    }
    for (int i = 0; i < 3; ++i) {
      uint32_t payload = 0;
      auto len = net.RecvFrom(env, 7, &payload, sizeof(payload));
      ASSERT_TRUE(len.ok());
      EXPECT_EQ(payload, 100u + i) << "datagrams must arrive in order";
    }
  });
}

TEST_F(NetTest, BatchedSendDeliversAllDatagramsInOneRpc) {
  Build(/*fine=*/false, /*wrappers=*/false);
  RunClient([&](mk::Env& env, NetClient& net) {
    ASSERT_EQ(net.Bind(env, 9000), base::Status::kOk);
    // 8 full-size frames in one call: the combined ref payload is far above
    // the OOL threshold even though each frame alone is below it.
    constexpr uint32_t kCount = 8;
    std::vector<std::vector<uint8_t>> bodies;
    NetDgram headers[kCount];
    const void* payloads[kCount];
    for (uint32_t i = 0; i < kCount; ++i) {
      bodies.emplace_back(1024, static_cast<uint8_t>('a' + i));
      headers[i] = NetDgram{0x7f000001, 9000, 1234, 1024, 0};
      payloads[i] = bodies[i].data();
    }
    const uint64_t ool0 = kernel_.tracer().metrics().Counter("mk.rpc.ool_transfers");
    auto sent = net.SendToBatch(env, headers, payloads, kCount);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, kCount);
    EXPECT_GE(kernel_.tracer().metrics().Counter("mk.rpc.ool_transfers") - ool0, 1u)
        << "the batch must move out-of-line";
    for (uint32_t i = 0; i < kCount; ++i) {
      std::vector<uint8_t> out(2048);
      uint16_t from_port = 0;
      auto len = net.RecvFrom(env, 9000, out.data(), static_cast<uint32_t>(out.size()),
                              nullptr, &from_port);
      ASSERT_TRUE(len.ok());
      EXPECT_EQ(*len, 1024u);
      EXPECT_EQ(out[0], static_cast<uint8_t>('a' + i)) << "batch order preserved";
      EXPECT_EQ(from_port, 1234);
    }
    // Malformed batches are rejected.
    EXPECT_EQ(net.SendToBatch(env, headers, payloads, 0).status(),
              base::Status::kInvalidArgument);
  });
  EXPECT_EQ(server_->datagrams_sent(), 8u);
  EXPECT_EQ(server_->datagrams_delivered(), 8u);
}

TEST_F(NetTest, UnboundPortDropsSilently) {
  Build(false, false);
  RunClient([&](mk::Env& env, NetClient& net) {
    ASSERT_EQ(net.Bind(env, 1), base::Status::kOk);
    const char msg[] = "to nowhere";
    ASSERT_EQ(net.SendTo(env, 0x7f000001, 4242, 1, msg, sizeof(msg)), base::Status::kOk);
    // Give the frame time to loop back and be dropped.
    env.SleepNs(5'000'000);
    EXPECT_EQ(net.RecvFrom(env, 4242, nullptr, 0).status(), base::Status::kNotFound);
  });
  EXPECT_EQ(server_->datagrams_delivered(), 0u);
}

TEST_F(NetTest, DoubleBindRejected) {
  Build(false, false);
  RunClient([&](mk::Env& env, NetClient& net) {
    ASSERT_EQ(net.Bind(env, 5), base::Status::kOk);
    EXPECT_EQ(net.Bind(env, 5), base::Status::kAlreadyExists);
  });
}

// Shutdown does not strand a parked receiver: when the net server stops, its
// serve thread resets the sockets and a RecvFrom deferred on a bound port
// completes with kUnavailable.
TEST_F(NetTest, StopCompletesDeferredReceiveWithUnavailable) {
  Build(false, false);
  base::Result<uint32_t> received = 0u;
  kernel_.CreateThread(client_task_, "receiver", [&](mk::Env& env) {
    NetClient net(service_);
    ASSERT_EQ(net.Bind(env, 7000), base::Status::kOk);
    received = net.RecvFrom(env, 7000, nullptr, 0);
  });
  kernel_.CreateThread(client_task_, "stopper", [&](mk::Env& env) {
    env.SleepNs(1'000'000);  // the receiver binds and parks its RecvFrom
    server_->Stop();
    env.SleepNs(1'000'000);  // the serve thread winds down
    driver_->Stop();
    kernel_.TerminateTask(net_task_);
    kernel_.TerminateTask(driver_task_);
  });
  ASSERT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(received.status(), base::Status::kUnavailable);
  EXPECT_EQ(server_->datagrams_delivered(), 0u);
}

TEST_F(NetTest, FineStackCostsMoreThanCoarse) {
  // Identical packet processing through both engines, measured directly (the
  // end-to-end ablation lives in bench_fine_objects, which controls for
  // scheduling noise): the fine-grained one must spend more instructions.
  mk::Task* task = kernel_.CreateTask("stack-bench");
  uint64_t fine_instr = 0;
  uint64_t coarse_instr = 0;
  kernel_.CreateThread(task, "t", [&](mk::Env& env) {
    FineStack fine(kernel_);
    CoarseStack coarse(kernel_);
    Datagram d;
    d.src_addr = 1;
    d.dst_addr = 2;
    d.src_port = 3;
    d.dst_port = 4;
    d.payload.assign(256, 0x55);
    auto measure = [&](StackEngine& engine) -> uint64_t {
      Datagram out;
      for (int i = 0; i < 5; ++i) {  // warm the engine's code paths
        auto frame = engine.Encapsulate(env, d);
        EXPECT_TRUE(engine.Decapsulate(env, frame.data(),
                                       static_cast<uint32_t>(frame.size()), &out));
      }
      const uint64_t i0 = kernel_.Counters().instructions;
      for (int i = 0; i < 50; ++i) {
        auto frame = engine.Encapsulate(env, d);
        EXPECT_TRUE(engine.Decapsulate(env, frame.data(),
                                       static_cast<uint32_t>(frame.size()), &out));
      }
      return kernel_.Counters().instructions - i0;
    };
    fine_instr = measure(fine);
    coarse_instr = measure(coarse);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(fine_instr, coarse_instr + coarse_instr / 4)
      << "fine-grained stack must be measurably slower";
}

class RegistryTest : public mk::KernelTest {};

TEST_F(RegistryTest, SetGetDeleteList) {
  mk::Task* reg_task = kernel_.CreateTask("registry");
  RegistryServer server(kernel_, reg_task);
  mk::Task* client = kernel_.CreateTask("client");
  mk::PortName service = server.GrantTo(*client);
  kernel_.CreateThread(client, "c", [&](mk::Env& env) {
    RegistryClient reg(service);
    ASSERT_EQ(reg.Set(env, "os2/shell", "pmshell.exe"), base::Status::kOk);
    ASSERT_EQ(reg.Set(env, "os2/swap", "on"), base::Status::kOk);
    ASSERT_EQ(reg.Set(env, "unix/shell", "/bin/sh"), base::Status::kOk);
    auto shell = reg.Get(env, "os2/shell");
    ASSERT_TRUE(shell.ok());
    EXPECT_EQ(*shell, "pmshell.exe");
    auto keys = reg.List(env, "os2");
    ASSERT_TRUE(keys.ok());
    EXPECT_EQ(keys->size(), 2u);
    ASSERT_EQ(reg.Delete(env, "os2/swap"), base::Status::kOk);
    EXPECT_EQ(reg.Get(env, "os2/swap").status(), base::Status::kNotFound);
    EXPECT_EQ(reg.Delete(env, "os2/swap"), base::Status::kNotFound);
    server.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

}  // namespace
}  // namespace svc
