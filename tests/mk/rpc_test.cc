#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

// Spawns a one-shot echo server on `server_task`; returns the send right the
// client should use.
PortName SpawnEchoServer(Kernel& kernel, Task* server_task, Task* client_task, int calls) {
  auto recv = kernel.PortAllocate(*server_task);
  EXPECT_TRUE(recv.ok());
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  EXPECT_TRUE(send.ok());
  kernel.CreateThread(server_task, "echo-server", [&kernel, recv = *recv, calls](Env& env) {
    char buf[256];
    for (int i = 0; i < calls; ++i) {
      auto req = env.RpcReceive(recv, buf, sizeof(buf));
      if (!req.ok()) {
        return;
      }
      env.RpcReply(req->token, buf, req->req_len);
    }
  });
  return *send;
}

TEST_F(KernelTest, RpcEchoRoundTrip) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  PortName port = SpawnEchoServer(kernel_, server, client, 1);
  std::string got;
  kernel_.CreateThread(client, "caller", [&](Env& env) {
    const char msg[] = "hello wpos";
    char reply[64] = {};
    uint32_t reply_len = 0;
    ASSERT_EQ(env.RpcCall(port, msg, sizeof(msg), reply, sizeof(reply), &reply_len),
              base::Status::kOk);
    EXPECT_EQ(reply_len, sizeof(msg));
    got = reply;
  });
  kernel_.Run();
  EXPECT_EQ(got, "hello wpos");
}

TEST_F(KernelTest, RpcWorksWhicheverSideArrivesFirst) {
  for (bool server_first : {true, false}) {
    hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
    Kernel kernel(&machine);
    Task* server = kernel.CreateTask("server");
    Task* client = kernel.CreateTask("client");
    auto recv = kernel.PortAllocate(*server);
    auto send = kernel.MakeSendRight(*server, *recv, *client);
    int replies = 0;
    auto server_body = [&, recv = *recv](Env& env) {
      char buf[64];
      auto req = env.RpcReceive(recv, buf, sizeof(buf));
      ASSERT_TRUE(req.ok());
      env.RpcReply(req->token, buf, req->req_len);
    };
    auto client_body = [&, send = *send](Env& env) {
      uint32_t v = 7;
      uint32_t r = 0;
      ASSERT_EQ(env.RpcCall(send, &v, sizeof(v), &r, sizeof(r)), base::Status::kOk);
      EXPECT_EQ(r, 7u);
      ++replies;
    };
    if (server_first) {
      kernel.CreateThread(server, "s", server_body);
      kernel.CreateThread(client, "c", client_body);
    } else {
      kernel.CreateThread(client, "c", client_body);
      kernel.CreateThread(server, "s", server_body);
    }
    EXPECT_EQ(kernel.Run(), 0u);
    EXPECT_EQ(replies, 1);
  }
}

TEST_F(KernelTest, RpcTooLargeRequestFails) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char tiny[8];
    // The oversized request is refused at delivery, and the server stays
    // parked for the next one, which fits.
    auto req = env.RpcReceive(recv, tiny, sizeof(tiny));
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->req_len, 4u);
    env.RpcReply(req->token, nullptr, 0);
  });
  base::Status st = base::Status::kOk;
  base::Status next = base::Status::kTooLarge;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    char big[128] = {};
    char reply[8];
    st = env.RpcCall(send, big, sizeof(big), reply, sizeof(reply));
    const uint32_t small = 1;
    next = env.RpcCall(send, &small, sizeof(small), nullptr, 0);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(st, base::Status::kTooLarge);
  EXPECT_EQ(next, base::Status::kOk);
}

// A request refused on its way into a parked server (here: a by-reference
// payload past the server's cap) moves none of its bytes into the server's
// buffers. So the next, shorter request reads zeros past its own bytes, as
// a fresh receive buffer promises, not the refused request's tail.
TEST_F(KernelTest, RefusedDeliveryLeavesTheParkedServerUntouched) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  std::vector<uint8_t> seen;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    uint8_t buf[64] = {};
    uint8_t bulk[16] = {};
    RpcRef ref;
    ref.recv_buf = bulk;
    ref.recv_cap = sizeof(bulk);
    auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->req_len, 8u);
    EXPECT_EQ(req->ref_len, 0u);
    EXPECT_EQ(std::count(bulk, bulk + sizeof(bulk), 0), 16);
    seen.assign(buf, buf + sizeof(buf));
    env.RpcReply(req->token, nullptr, 0);
  });
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    ASSERT_EQ((*kernel_.ResolvePort(*server, *recv))->waiting_servers.size(), 1u)
        << "the server must be parked";
    const std::vector<uint8_t> refused(64, 0xab);
    const std::vector<uint8_t> too_big(32, 0xcd);
    RpcRef ref;
    ref.send_data = too_big.data();
    ref.send_len = static_cast<uint32_t>(too_big.size());
    EXPECT_EQ(env.RpcCall(send, refused.data(), 64, nullptr, 0, nullptr, &ref),
              base::Status::kTooLarge);
    const uint64_t shorter = 0x1122334455667788;
    EXPECT_EQ(env.RpcCall(send, &shorter, sizeof(shorter), nullptr, 0), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  ASSERT_EQ(seen.size(), 64u);
  EXPECT_EQ(std::count(seen.begin() + 8, seen.end(), 0), 56) << "the refused request's tail";
}

// A request whose second right names a dead port is refused whole: the
// first right does not reach the parked server's port space either.
TEST_F(KernelTest, RefusedRightsLeaveTheParkedServersPortSpaceAlone) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  Task* other = kernel_.CreateTask("other");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  auto live = kernel_.PortAllocate(*client);
  auto gone = kernel_.PortAllocate(*other);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(gone.ok());
  auto gone_send = kernel_.MakeSendRight(*other, *gone, *client);
  ASSERT_TRUE(gone_send.ok());
  ASSERT_EQ(kernel_.PortDestroy(*other, *gone), base::Status::kOk);
  size_t rights_received = 99;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    uint32_t buf = 0;
    auto req = env.RpcReceive(recv, &buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    rights_received = req->rights.size();
    env.RpcReply(req->token, nullptr, 0);
  });
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    ASSERT_EQ((*kernel_.ResolvePort(*server, *recv))->waiting_servers.size(), 1u)
        << "the server must be parked";
    const size_t names = server->port_space().size();
    const RightDescriptor rights[] = {{.name = *live, .disposition = RightType::kSend},
                                      {.name = *gone_send, .disposition = RightType::kSend}};
    const uint32_t hdr = 1;
    EXPECT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), nullptr, 0, nullptr, nullptr, rights, 2),
              base::Status::kPortDead);
    EXPECT_EQ(server->port_space().size(), names) << "a right of the refused request";
    // The server still serves a well-formed request.
    EXPECT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), nullptr, 0), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(rights_received, 0u);
}

TEST_F(KernelTest, RpcByReferenceBulkData) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  std::vector<uint8_t> server_seen;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    std::vector<uint8_t> bulk(8192);
    RpcRef ref;
    ref.recv_buf = bulk.data();
    ref.recv_cap = static_cast<uint32_t>(bulk.size());
    auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
    ASSERT_TRUE(req.ok());
    ASSERT_EQ(req->ref_len, 4096u);
    server_seen.assign(bulk.begin(), bulk.begin() + req->ref_len);
    // Reply with transformed bulk data.
    for (auto& b : server_seen) {
      b ^= 0xff;
    }
    env.RpcReply(req->token, buf, req->req_len, server_seen.data(),
                 static_cast<uint32_t>(server_seen.size()));
  });
  std::vector<uint8_t> reply_bulk(8192);
  uint32_t reply_bulk_len = 0;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    std::vector<uint8_t> data(4096);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i);
    }
    RpcRef ref;
    ref.send_data = data.data();
    ref.send_len = static_cast<uint32_t>(data.size());
    ref.recv_buf = reply_bulk.data();
    ref.recv_cap = static_cast<uint32_t>(reply_bulk.size());
    uint32_t hdr = 1;
    uint32_t rep = 0;
    ASSERT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref),
              base::Status::kOk);
    reply_bulk_len = ref.recv_len;
  });
  kernel_.Run();
  ASSERT_EQ(server_seen.size(), 4096u);
  ASSERT_EQ(reply_bulk_len, 4096u);
  EXPECT_EQ(reply_bulk[10], static_cast<uint8_t>(10 ^ 0xff));
}

TEST_F(KernelTest, RpcTransfersRightsBothWays) {
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  // The client sends a right to a port it owns; the server grants back a
  // right to a fresh "session" port.
  auto client_port = kernel_.PortAllocate(*client);
  ASSERT_TRUE(client_port.ok());
  Port* session_port_raw = nullptr;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    auto req = env.RpcReceive(recv, buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    ASSERT_EQ(req->rights.size(), 1u);
    // The transferred right must reference the client's port.
    auto p = env.kernel().ResolvePort(env.task(), req->rights[0]);
    ASSERT_TRUE(p.ok());
    auto session = env.PortAllocate();
    ASSERT_TRUE(session.ok());
    session_port_raw = *env.kernel().ResolvePort(env.task(), *session);
    env.RpcReply(req->token, buf, req->req_len, nullptr, 0, /*grant=*/*session);
  });
  PortName granted = kNullPort;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    uint32_t hdr = 1;
    uint32_t rep = 0;
    RightDescriptor rd{.name = *client_port, .disposition = RightType::kSend};
    ASSERT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, nullptr, &rd, 1,
                          &granted),
              base::Status::kOk);
  });
  kernel_.Run();
  ASSERT_NE(granted, kNullPort);
  auto resolved = kernel_.ResolvePort(*client, granted);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, session_port_raw);
}

TEST_F(KernelTest, RpcServerServesManyClients) {
  Task* server = kernel_.CreateTask("server");
  constexpr int kClients = 5;
  constexpr int kCallsEach = 4;
  auto recv = kernel_.PortAllocate(*server);
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    for (int i = 0; i < kClients * kCallsEach; ++i) {
      auto req = env.RpcReceive(recv, buf, sizeof(buf));
      ASSERT_TRUE(req.ok());
      uint32_t v;
      std::memcpy(&v, buf, sizeof(v));
      v *= 2;
      env.RpcReply(req->token, &v, sizeof(v));
    }
  });
  int ok_count = 0;
  for (int c = 0; c < kClients; ++c) {
    Task* client = kernel_.CreateTask("client" + std::to_string(c));
    auto send = kernel_.MakeSendRight(*server, *recv, *client);
    kernel_.CreateThread(client, "c", [&, send = *send, c](Env& env) {
      for (int i = 0; i < kCallsEach; ++i) {
        uint32_t v = static_cast<uint32_t>(c * 100 + i);
        uint32_t r = 0;
        ASSERT_EQ(env.RpcCall(send, &v, sizeof(v), &r, sizeof(r)), base::Status::kOk);
        ASSERT_EQ(r, v * 2);
        ++ok_count;
      }
    });
  }
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(ok_count, kClients * kCallsEach);
}

TEST_F(KernelTest, RpcOolPicksTransferModeBySizeAndSetsFlags) {
  // Ref payloads at/above the OOL threshold move as page references; below
  // it they use the copy loop. Both directions record which path ran.
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  constexpr uint32_t kBig = 16 * 1024;   // >= threshold: OOL
  constexpr uint32_t kSmall = 512;       // < threshold: copy
  bool server_saw_ool_request = false;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    std::vector<uint8_t> bulk(kBig);
    for (int i = 0; i < 2; ++i) {
      RpcRef ref;
      ref.recv_buf = bulk.data();
      ref.recv_cap = static_cast<uint32_t>(bulk.size());
      auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
      ASSERT_TRUE(req.ok());
      if (i == 0) {
        server_saw_ool_request = ref.recv_ool;
        // Content must be intact regardless of transfer mode.
        EXPECT_EQ(bulk[0], 0xab);
        EXPECT_EQ(bulk[kBig - 1], 0xab);
      } else {
        EXPECT_FALSE(ref.recv_ool) << "small payload must stay inline";
      }
      // Echo the same bytes back.
      env.RpcReply(req->token, buf, req->req_len, bulk.data(), req->ref_len);
    }
  });
  bool big_sent_ool = false;
  bool big_recv_ool = false;
  bool small_sent_ool = true;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    std::vector<uint8_t> data(kBig, 0xab);
    std::vector<uint8_t> back(kBig);
    uint32_t hdr = 1;
    uint32_t rep = 0;
    RpcRef ref;
    ref.send_data = data.data();
    ref.send_len = kBig;
    ref.recv_buf = back.data();
    ref.recv_cap = kBig;
    ASSERT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref),
              base::Status::kOk);
    big_sent_ool = ref.sent_ool;
    big_recv_ool = ref.recv_ool;
    EXPECT_EQ(ref.recv_len, kBig);
    EXPECT_EQ(back[kBig / 2], 0xab);

    RpcRef small;
    small.send_data = data.data();
    small.send_len = kSmall;
    small.recv_buf = back.data();
    small.recv_cap = kBig;
    ASSERT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &small),
              base::Status::kOk);
    small_sent_ool = small.sent_ool;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(big_sent_ool);
  EXPECT_TRUE(big_recv_ool);
  EXPECT_TRUE(server_saw_ool_request);
  EXPECT_FALSE(small_sent_ool);
  EXPECT_GE(kernel_.tracer().metrics().Counter("mk.rpc.ool_transfers"), 2u);
  EXPECT_GE(kernel_.tracer().metrics().Counter("mk.rpc.ool_bytes"), 2u * kBig);
}

TEST_F(KernelTest, RpcOolReplyIsSnapshotOfSenderBuffer) {
  // Snapshot semantics for the reply-direction OOL transfer: once RpcReply
  // returns, the server may reuse its bulk buffer; the client must see the
  // bytes as they were at reply time, not the later mutation.
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  constexpr uint32_t kBytes = 8 * 1024;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    std::vector<uint8_t> bulk(kBytes, 0xcd);
    auto req = env.RpcReceive(recv, buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    env.RpcReply(req->token, buf, req->req_len, bulk.data(), kBytes);
    // Mutate AFTER replying: must not leak into the client's copy.
    std::fill(bulk.begin(), bulk.end(), 0x00);
  });
  std::vector<uint8_t> got(kBytes);
  bool was_ool = false;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    uint32_t hdr = 1;
    uint32_t rep = 0;
    RpcRef ref;
    ref.recv_buf = got.data();
    ref.recv_cap = kBytes;
    ASSERT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref),
              base::Status::kOk);
    ASSERT_EQ(ref.recv_len, kBytes);
    was_ool = ref.recv_ool;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(was_ool);
  EXPECT_EQ(got[0], 0xcd);
  EXPECT_EQ(got[kBytes - 1], 0xcd);
}

TEST_F(KernelTest, RpcOolCheaperThanForcedCopyForLargePayloads) {
  // The tentpole claim: above the threshold the page-reference transfer
  // beats the per-byte copy loop. Force kCopy on one batch, let kAuto pick
  // OOL on the other, and compare cycles for identical traffic.
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  constexpr uint32_t kBytes = 16 * 1024;
  constexpr int kIters = 20;
  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    std::vector<uint8_t> bulk(kBytes);
    for (int i = 0; i < 2 * kIters; ++i) {
      RpcRef ref;
      ref.recv_buf = bulk.data();
      ref.recv_cap = kBytes;
      auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
      ASSERT_TRUE(req.ok());
      env.RpcReply(req->token, buf, req->req_len);
    }
  });
  uint64_t copy_cycles = 0;
  uint64_t ool_cycles = 0;
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    std::vector<uint8_t> data(kBytes, 0x5a);
    uint32_t hdr = 1;
    uint32_t rep = 0;
    auto run = [&](RpcBulkMode mode) -> uint64_t {
      const uint64_t c0 = env.kernel().cpu().cycles();
      for (int i = 0; i < kIters; ++i) {
        RpcRef ref;
        ref.send_data = data.data();
        ref.send_len = kBytes;
        ref.send_mode = mode;
        EXPECT_EQ(env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref),
                  base::Status::kOk);
        EXPECT_EQ(ref.sent_ool, mode != RpcBulkMode::kCopy);
      }
      return env.kernel().cpu().cycles() - c0;
    };
    copy_cycles = run(RpcBulkMode::kCopy);
    ool_cycles = run(RpcBulkMode::kAuto);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(ool_cycles, 0u);
  EXPECT_LT(ool_cycles, copy_cycles)
      << "16 KB by reference should be cheaper out-of-line than copied";
}

TEST_F(KernelTest, RpcCheaperThanLegacyIpcRoundTrip) {
  // The core claim of the IPC rework: a synchronous RPC round trip costs
  // less than the equivalent mach_msg request/reply with a reply port.
  Task* server = kernel_.CreateTask("server");
  Task* client = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server);
  auto send = kernel_.MakeSendRight(*server, *recv, *client);
  uint64_t rpc_cycles = 0;
  uint64_t ipc_cycles = 0;

  kernel_.CreateThread(server, "s", [&, recv = *recv](Env& env) {
    char buf[64];
    for (int i = 0; i < 200; ++i) {
      auto req = env.RpcReceive(recv, buf, sizeof(buf));
      ASSERT_TRUE(req.ok());
      env.RpcReply(req->token, buf, req->req_len);
    }
    // Legacy phase: receive + explicit reply message.
    for (int i = 0; i < 200; ++i) {
      MachMessage msg;
      ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
      MachMessage reply;
      reply.dest = msg.reply_port;
      reply.inline_data = msg.inline_data;
      ASSERT_EQ(env.kernel().MachMsgSend(std::move(reply)), base::Status::kOk);
    }
  });
  kernel_.CreateThread(client, "c", [&, send = *send](Env& env) {
    char payload[32] = {};
    char reply[64];
    // Warm up, then measure 100 RPC round trips.
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply)),
                base::Status::kOk);
    }
    uint64_t c0 = env.kernel().cpu().cycles();
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply)),
                base::Status::kOk);
    }
    rpc_cycles = env.kernel().cpu().cycles() - c0;

    auto reply_port = env.PortAllocate();
    ASSERT_TRUE(reply_port.ok());
    auto do_legacy = [&](int iters) {
      for (int i = 0; i < iters; ++i) {
        MachMessage msg;
        msg.dest = send;
        msg.reply_port = *reply_port;
        msg.inline_data.assign(payload, payload + sizeof(payload));
        ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
        MachMessage rep;
        ASSERT_EQ(env.kernel().MachMsgReceive(*reply_port, &rep), base::Status::kOk);
      }
    };
    do_legacy(100);
    c0 = env.kernel().cpu().cycles();
    do_legacy(100);
    ipc_cycles = env.kernel().cpu().cycles() - c0;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(rpc_cycles, 0u);
  EXPECT_GT(ipc_cycles, rpc_cycles * 3 / 2)
      << "legacy IPC should cost well over 1.5x the reworked RPC";
}

}  // namespace
}  // namespace mk
