// Combined reply-and-receive: the server-loop fast path where the server is
// re-parked before the replied client can issue its next call.
#include <cstring>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TEST_F(KernelTest, ReplyAndReceiveServesBackToBackCalls) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  int served = 0;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    uint32_t v = 0;
    auto req = env.RpcReceive(recv, &v, sizeof(v));
    while (req.ok()) {
      ++served;
      const uint32_t reply = v * 2;
      req = env.kernel().RpcReplyAndReceive(req->token, &reply, sizeof(reply), recv, &v,
                                            sizeof(v));
    }
  });
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    for (uint32_t i = 1; i <= 10; ++i) {
      uint32_t r = 0;
      ASSERT_EQ(env.RpcCall(send, &i, sizeof(i), &r, sizeof(r)), base::Status::kOk);
      ASSERT_EQ(r, i * 2);
    }
    ASSERT_EQ(env.kernel().PortDestroy(*server, *recv), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(served, 10);
}

TEST_F(KernelTest, ReplyAndReceiveBeatsReplyThenReceiveUnderLoad) {
  // With a background thread competing for the CPU, the combined call keeps
  // the rendezvous handoff chain intact; the split sequence loses it.
  auto measure = [&](bool combined) {
    hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
    Kernel kernel(&machine);
    Task* server_task = kernel.CreateTask("server");
    Task* client_task = kernel.CreateTask("client");
    Task* bg_task = kernel.CreateTask("bg");
    auto recv = kernel.PortAllocate(*server_task);
    auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
    bool stop = false;
    kernel.CreateThread(bg_task, "spin", [&](Env& env) {
      while (!stop) {
        env.Compute(600);
        env.Yield();
      }
    });
    kernel.CreateThread(server_task, "s", [&, recv = *recv](Env& env) {
      char buf[32];
      auto req = env.RpcReceive(recv, buf, sizeof(buf));
      while (req.ok()) {
        if (combined) {
          req = env.kernel().RpcReplyAndReceive(req->token, nullptr, 0, recv, buf, sizeof(buf));
        } else {
          env.RpcReply(req->token, nullptr, 0);
          req = env.RpcReceive(recv, buf, sizeof(buf));
        }
      }
    });
    uint64_t cycles = 0;
    kernel.CreateThread(client_task, "c", [&, send = *send](Env& env) {
      char payload[16] = {};
      char reply[16];
      for (int i = 0; i < 30; ++i) {
        (void)env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
      }
      const uint64_t c0 = kernel.cpu().cycles();
      for (int i = 0; i < 100; ++i) {
        (void)env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
      }
      cycles = (kernel.cpu().cycles() - c0) / 100;
      stop = true;
      (void)kernel.PortDestroy(*server_task, *recv);
    });
    kernel.Run();
    return cycles;
  };
  const uint64_t combined = measure(true);
  const uint64_t split = measure(false);
  EXPECT_LT(combined + combined / 5, split)
      << "combined reply+receive must be >20% faster under load";
}

// Regression found by schedule exploration: when a client's request queued
// up while the server was busy and then failed delivery (too large for the
// posted buffers), RpcReplyAndReceive neither woke that client nor told the
// server — the client blocked forever and the returned RpcRequest carried a
// stale token. The oversized caller must get kTooLarge, the replied client
// must still complete, and the server must be able to keep serving.
TEST_F(KernelTest, ReplyAndReceiveFailsOversizedQueuedRequestWithoutStranding) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  int served = 0;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    uint32_t v = 0;
    auto req = env.RpcReceive(recv, &v, sizeof(v));
    ASSERT_TRUE(req.ok());
    ++served;
    env.Yield();  // let the oversized and the follow-up call queue behind us
    const uint32_t reply = v * 2;
    auto next = env.kernel().RpcReplyAndReceive(req->token, &reply, sizeof(reply), recv, &v,
                                                sizeof(v));
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status(), base::Status::kTooLarge);
    // The loop is still healthy: the small follow-up request is next in line.
    next = env.RpcReceive(recv, &v, sizeof(v));
    ASSERT_TRUE(next.ok());
    ++served;
    const uint32_t reply2 = v * 2;
    ASSERT_EQ(env.RpcReply(next->token, &reply2, sizeof(reply2)), base::Status::kOk);
    ASSERT_EQ(env.kernel().PortDestroy(*server, recv), base::Status::kOk);
  });
  kernel_.CreateThread(client, "small1", [&, send = *send](Env& env) {
    uint32_t req = 3, r = 0;
    ASSERT_EQ(env.RpcCall(send, &req, sizeof(req), &r, sizeof(r)), base::Status::kOk);
    EXPECT_EQ(r, 6u);
  });
  kernel_.CreateThread(client, "huge", [&, send = *send](Env& env) {
    char big[64] = {0};
    uint32_t r = 0;
    EXPECT_EQ(env.RpcCall(send, big, sizeof(big), &r, sizeof(r)), base::Status::kTooLarge);
  });
  kernel_.CreateThread(client, "small2", [&, send = *send](Env& env) {
    uint32_t req = 5, r = 0;
    ASSERT_EQ(env.RpcCall(send, &req, sizeof(req), &r, sizeof(r)), base::Status::kOk);
    EXPECT_EQ(r, 10u);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(served, 2);
}

// The reply half runs before the receive half is looked at: a server whose
// receive port died under it (a handler that stopped its loop) still
// completes the caller it answers, and only the receive half fails.
TEST_F(KernelTest, ReplyAndReceiveOnDestroyedPortStillCompletesTheClient) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  base::Status receive_half = base::Status::kOk;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    uint32_t v = 0;
    auto req = env.RpcReceive(recv, &v, sizeof(v));
    ASSERT_TRUE(req.ok());
    ASSERT_EQ(env.kernel().PortDestroy(*server, recv), base::Status::kOk);
    const uint32_t reply = v + 1;
    auto next = env.kernel().RpcReplyAndReceive(req->token, &reply, sizeof(reply), recv, &v,
                                                sizeof(v));
    ASSERT_FALSE(next.ok());
    receive_half = next.status();
  });
  base::Status call = base::Status::kInternal;
  uint32_t got = 0;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    uint32_t req = 41;
    call = env.RpcCall(send, &req, sizeof(req), &got, sizeof(got));
  });
  EXPECT_EQ(kernel_.Run(), 0u) << "the answered client must not be left blocked";
  EXPECT_EQ(call, base::Status::kOk);
  EXPECT_EQ(got, 42u);
  EXPECT_NE(receive_half, base::Status::kOk);
}

// A caller that timed out while the handler ran leaves a stale token. The
// reply has nobody to go to, but the receive half still parks the server,
// so the loop keeps serving: the next caller finds it waiting.
TEST_F(KernelTest, ReplyAndReceiveWithStaleTokenStillParks) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  int served = 0;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    uint32_t v = 0;
    auto req = env.RpcReceive(recv, &v, sizeof(v));
    while (req.ok()) {
      if (++served == 1) {
        (void)env.SleepNs(5'000'000);  // the caller's 1 ms deadline passes
      }
      const uint32_t reply = v * 2;
      req = env.kernel().RpcReplyAndReceive(req->token, &reply, sizeof(reply), recv, &v,
                                            sizeof(v));
    }
  });
  base::Status timed_out = base::Status::kOk;
  size_t parked_servers = 0;
  base::Status next = base::Status::kInternal;
  uint32_t got = 0;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    uint32_t req = 3;
    timed_out = env.RpcCall(send, &req, sizeof(req), &got, sizeof(got), nullptr, nullptr,
                            nullptr, 0, nullptr, /*timeout_ns=*/1'000'000);
    (void)env.SleepNs(10'000'000);  // the handler finishes with the stale token
    auto port = env.kernel().ResolvePort(*server, *recv);
    ASSERT_TRUE(port.ok());
    parked_servers = (*port)->waiting_servers.size();
    req = 5;
    next = env.RpcCall(send, &req, sizeof(req), &got, sizeof(got));
    ASSERT_EQ(env.kernel().PortDestroy(*server, *recv), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(timed_out, base::Status::kTimedOut);
  EXPECT_EQ(parked_servers, 1u) << "the stale reply must still park the server";
  EXPECT_EQ(next, base::Status::kOk);
  EXPECT_EQ(got, 10u);
  EXPECT_EQ(served, 2);
}

}  // namespace
}  // namespace mk
