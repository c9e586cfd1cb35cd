#include "src/mk/server_loop.h"

#include <gtest/gtest.h>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

struct AddReq {
  uint32_t op = 1;
  uint32_t a = 0;
  uint32_t b = 0;
};
struct AddRep {
  uint32_t sum = 0;
};
struct OpReq {
  uint32_t op = 0;
};

TEST_F(KernelTest, ServerLoopDispatchesByOpCode) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);

  ServerLoop loop(*recv, "calc");
  kernel_.CreateThread(server_task, "s", [&](Env& env) {
    loop.Run<AddReq>(env, [](Env& env, const RpcRequest& rpc, const AddReq& r, const uint8_t*,
                             uint32_t) {
      if (r.op != 1) {
        env.RpcReply(rpc.token, nullptr, 0, nullptr, 0, kNullPort, base::Status::kNotSupported);
        return;
      }
      AddRep rep{r.a + r.b};
      env.RpcReply(rpc.token, &rep, sizeof(rep));
    });
  });

  uint32_t sum = 0;
  uint32_t short_sum = 1;
  base::Status unknown_status = base::Status::kOk;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("calc.client", send);
    AddReq req{1, 20, 22};
    AddRep rep;
    ASSERT_EQ(stub.Call(env, req, &rep), base::Status::kOk);
    sum = rep.sum;
    // A short request reads as zeros past its end, never as the previous
    // request's bytes.
    OpReq add_only{1};
    ASSERT_EQ(stub.Call(env, add_only, &rep), base::Status::kOk);
    short_sum = rep.sum;
    // The server's own switch answers an unknown op code.
    AddReq bad{999, 0, 0};
    unknown_status = stub.Call(env, bad, &rep);
    loop.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(short_sum, 0u);
  EXPECT_EQ(unknown_status, base::Status::kNotSupported);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("server.calc.ops"), 3u);
}

// Stop() between receives takes effect immediately: the receive port dies,
// the parked server wakes and exits, and every later call observes kPortDead
// instead of racing against one more served request.
TEST_F(KernelTest, ServerLoopStopKillsPort) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop loop(*recv, "oneshot");
  kernel_.CreateThread(server_task, "s", [&](Env& env) {
    loop.Run<OpReq>(env, [](Env& env, const RpcRequest& rpc, const OpReq&, const uint8_t*,
                            uint32_t) { env.RpcReply(rpc.token, nullptr, 0); });
  });
  base::Status after_stop = base::Status::kOk;
  base::Status after_stop2 = base::Status::kOk;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("oneshot.client", send);
    OpReq op{1};
    uint32_t rep;
    ASSERT_EQ(stub.Call(env, op, &rep), base::Status::kOk);  // loop is serving
    loop.Stop();  // between receives: the port dies right now
    after_stop = stub.Call(env, op, &rep);
    after_stop2 = stub.Call(env, op, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(after_stop, base::Status::kPortDead);
  EXPECT_EQ(after_stop2, base::Status::kPortDead);
  EXPECT_FALSE(loop.running());
}

// A caller queued behind a busy server observes kPortDead when a handler
// stops the loop; the in-progress request still completes by token.
TEST_F(KernelTest, ServerLoopStopFailsQueuedCallers) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop loop(*recv, "shutdown");
  kernel_.CreateThread(server_task, "s", [&](Env& env) {
    loop.Run<OpReq>(env, [&](Env& env, const RpcRequest& rpc, const OpReq&, const uint8_t*,
                             uint32_t) {
      env.Yield();  // let the second caller queue up behind us
      loop.Stop();
      env.RpcReply(rpc.token, nullptr, 0);
    });
  });
  base::Status first = base::Status::kInternal;
  base::Status queued = base::Status::kInternal;
  kernel_.CreateThread(client_task, "c1", [&, send = *send](Env& env) {
    ClientStub stub("shutdown.c1", send);
    OpReq op{2};
    uint32_t rep;
    first = stub.Call(env, op, &rep);
  });
  kernel_.CreateThread(client_task, "c2", [&, send = *send](Env& env) {
    ClientStub stub("shutdown.c2", send);
    OpReq op{2};
    uint32_t rep;
    queued = stub.Call(env, op, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(first, base::Status::kOk);
  EXPECT_EQ(queued, base::Status::kPortDead);
}

// The same shutdown through ServerLoop::Reply: a reply recorded before the
// handler stops the loop still goes out, in the loop's last trap, whose
// receive half then fails on the destroyed port.
TEST_F(KernelTest, ServerLoopStopStillDeliversARecordedReply) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop loop(*recv, "shutdown");
  kernel_.CreateThread(server_task, "s", [&](Env& env) {
    loop.Run<OpReq>(env, [&](Env& env, const RpcRequest& rpc, const OpReq&, const uint8_t*,
                             uint32_t) {
      env.Yield();  // let the second caller queue up behind us
      const AddRep rep{7};
      loop.Reply(rpc, &rep, sizeof(rep));
      loop.Stop();
    });
  });
  base::Status first = base::Status::kInternal;
  uint32_t first_sum = 0;
  base::Status queued = base::Status::kInternal;
  kernel_.CreateThread(client_task, "c1", [&, send = *send](Env& env) {
    ClientStub stub("shutdown.c1", send);
    AddRep rep;
    first = stub.Call(env, OpReq{2}, &rep);
    first_sum = rep.sum;
  });
  kernel_.CreateThread(client_task, "c2", [&, send = *send](Env& env) {
    ClientStub stub("shutdown.c2", send);
    AddRep rep;
    queued = stub.Call(env, OpReq{2}, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u) << "the answered caller must not be stranded";
  EXPECT_EQ(first, base::Status::kOk);
  EXPECT_EQ(first_sum, 7u);
  EXPECT_EQ(queued, base::Status::kPortDead);
  EXPECT_FALSE(loop.running());
}

}  // namespace
}  // namespace mk
