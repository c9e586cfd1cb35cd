#include <cstring>
#include <string>
#include <vector>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TEST_F(KernelTest, MachMsgSendReceiveInline) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  std::string got;
  kernel_.CreateThread(a, "sender", [&, send = *send](Env& env) {
    MachMessage msg;
    msg.msg_id = 42;
    msg.dest = send;
    const char body[] = "async";
    msg.inline_data.assign(body, body + sizeof(body));
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
  });
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    EXPECT_EQ(msg.msg_id, 42u);
    got = reinterpret_cast<const char*>(msg.inline_data.data());
  });
  kernel_.Run();
  EXPECT_EQ(got, "async");
}

TEST_F(KernelTest, MachMsgIsAsynchronousUpToQueueLimit) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  int sent_without_blocking = 0;
  kernel_.CreateThread(a, "sender", [&, send = *send](Env& env) {
    // Up to the queue limit, sends complete without a receiver.
    for (size_t i = 0; i < Port::kDefaultQueueLimit; ++i) {
      MachMessage msg;
      msg.dest = send;
      msg.inline_data = {1, 2, 3};
      ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
      ++sent_without_blocking;
    }
  });
  kernel_.Run();
  EXPECT_EQ(sent_without_blocking, static_cast<int>(Port::kDefaultQueueLimit));
  // Drain.
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](Env& env) {
    for (size_t i = 0; i < Port::kDefaultQueueLimit; ++i) {
      MachMessage msg;
      ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    }
  });
  kernel_.Run();
}

TEST_F(KernelTest, MachMsgFullQueueBlocksSenderUntilReceive) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  int sent = 0;
  int received = 0;
  kernel_.CreateThread(a, "sender", [&, send = *send](Env& env) {
    for (size_t i = 0; i < Port::kDefaultQueueLimit + 3; ++i) {
      MachMessage msg;
      msg.dest = send;
      ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
      ++sent;
    }
  });
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](Env& env) {
    // Let the sender fill the queue and block.
    env.Yield();
    EXPECT_EQ(sent, static_cast<int>(Port::kDefaultQueueLimit));
    for (size_t i = 0; i < Port::kDefaultQueueLimit + 3; ++i) {
      MachMessage msg;
      ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
      ++received;
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(received, static_cast<int>(Port::kDefaultQueueLimit) + 3);
}

// Queue-limit / blocked_senders interaction with port death: senders parked
// on a full queue must all wake with kPortDead when the port is destroyed —
// not stay blocked, not ever see their message "delivered" to a dead port.
TEST_F(KernelTest, MachMsgPortDeathWakesBlockedSenders) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  ASSERT_TRUE(recv.ok());
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  ASSERT_TRUE(send.ok());

  // Two senders each fill-and-overflow: the first kDefaultQueueLimit sends
  // complete, then both threads park in blocked_senders.
  std::vector<base::Status> parked_status(2, base::Status::kOk);
  for (int i = 0; i < 2; ++i) {
    kernel_.CreateThread(a, "sender" + std::to_string(i), [&, i, right = *send](Env& env) {
      for (;;) {
        MachMessage msg;
        msg.dest = right;
        msg.inline_data = {static_cast<uint8_t>(i)};
        const base::Status st = env.kernel().MachMsgSend(std::move(msg));
        if (st != base::Status::kOk) {
          parked_status[i] = st;
          return;
        }
      }
    });
  }
  kernel_.CreateThread(b, "killer", [&, r = *recv](Env& env) {
    // Let both senders saturate the queue and park.
    (void)env.SleepNs(1'000'000);
    (void)env.kernel().PortDestroy(env.task(), r);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(parked_status[0], base::Status::kPortDead);
  EXPECT_EQ(parked_status[1], base::Status::kPortDead);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

TEST_F(KernelTest, MachMsgReceiveTimeout) {
  Task* a = kernel_.CreateTask("a");
  auto recv = kernel_.PortAllocate(*a);
  base::Status st = base::Status::kOk;
  uint64_t waited_ns = 0;
  kernel_.CreateThread(a, "receiver", [&, recv = *recv](Env& env) {
    MachMessage msg;
    const uint64_t t0 = env.NowNs();
    st = env.kernel().MachMsgReceive(recv, &msg, /*timeout_ns=*/2'000'000);
    waited_ns = env.NowNs() - t0;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(st, base::Status::kTimedOut);
  EXPECT_GE(waited_ns, 2'000'000u);
}

TEST_F(KernelTest, MachMsgCarriesReplyPortAsSendOnce) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  uint32_t answer = 0;
  kernel_.CreateThread(a, "client", [&, send = *send](Env& env) {
    auto reply_port = env.PortAllocate();
    ASSERT_TRUE(reply_port.ok());
    MachMessage msg;
    msg.dest = send;
    msg.reply_port = *reply_port;
    msg.inline_data = {21, 0, 0, 0};
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
    MachMessage reply;
    ASSERT_EQ(env.kernel().MachMsgReceive(*reply_port, &reply), base::Status::kOk);
    std::memcpy(&answer, reply.inline_data.data(), 4);
  });
  kernel_.CreateThread(b, "server", [&, recv = *recv](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    ASSERT_NE(msg.reply_port, kNullPort);
    uint32_t v;
    std::memcpy(&v, msg.inline_data.data(), 4);
    MachMessage reply;
    reply.dest = msg.reply_port;
    v *= 2;
    reply.inline_data.resize(4);
    std::memcpy(reply.inline_data.data(), &v, 4);
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(reply)), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(answer, 42u);
}

TEST_F(KernelTest, MachMsgTransfersPortRights) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  auto a_port = kernel_.PortAllocate(*a);
  Port* expected = *kernel_.ResolvePort(*a, *a_port);
  Port* received = nullptr;
  kernel_.CreateThread(a, "sender", [&, send = *send](Env& env) {
    MachMessage msg;
    msg.dest = send;
    msg.rights.push_back({.name = *a_port, .disposition = RightType::kSend});
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
  });
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    ASSERT_EQ(msg.rights.size(), 1u);
    auto p = env.kernel().ResolvePort(env.task(), msg.rights[0].name);
    ASSERT_TRUE(p.ok());
    received = *p;
  });
  kernel_.Run();
  EXPECT_EQ(received, expected);
}

TEST_F(KernelTest, MachMsgOolVirtualCopyIsSnapshot) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  uint8_t receiver_saw = 0;
  kernel_.CreateThread(a, "sender", [&, send = *send](Env& env) {
    auto buf = env.VmAllocate(hw::kPageSize * 2);
    ASSERT_TRUE(buf.ok());
    ASSERT_EQ(env.kernel().UserFill(env.task(), *buf, 0x5a, 64), base::Status::kOk);
    MachMessage msg;
    msg.dest = send;
    msg.ool.push_back({.address = *buf, .size = hw::kPageSize, .deallocate_sender = false});
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(msg)), base::Status::kOk);
    // Overwrite AFTER sending: the receiver must still see the snapshot.
    ASSERT_EQ(env.kernel().UserFill(env.task(), *buf, 0x11, 64), base::Status::kOk);
  });
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    ASSERT_EQ(msg.ool.size(), 1u);
    uint8_t byte = 0;
    ASSERT_EQ(env.CopyIn(msg.ool[0].address, &byte, 1), base::Status::kOk);
    receiver_saw = byte;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(receiver_saw, 0x5a);
}

// A message the kernel heap cannot hold is a typed answer, not a host
// abort: nothing is queued or allocated, and the port keeps working.
TEST_F(KernelTest, MachMsgLargerThanTheHeapIsResourceShortage) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto recv = kernel_.PortAllocate(*b);
  auto send = kernel_.MakeSendRight(*b, *recv, *a);
  Port* port = *kernel_.ResolvePort(*b, *recv);
  base::Status huge = base::Status::kOk;
  size_t queued_after_huge = 1;
  uint64_t heap_taken = 1;
  std::string got;
  kernel_.CreateThread(a, "sender", [&, send = *send](Env& env) {
    const uint64_t heap_before = env.kernel().heap().bytes_allocated();
    MachMessage big;
    big.msg_id = 1;
    big.dest = send;
    big.inline_data.resize(KernelConfig().kernel_heap_bytes + 1);
    huge = env.kernel().MachMsgSend(std::move(big));
    queued_after_huge = port->queue.size();
    heap_taken = env.kernel().heap().bytes_allocated() - heap_before;
    MachMessage small;
    small.msg_id = 2;
    small.dest = send;
    const char body[] = "small";
    small.inline_data.assign(body, body + sizeof(body));
    ASSERT_EQ(env.kernel().MachMsgSend(std::move(small)), base::Status::kOk);
  });
  kernel_.CreateThread(b, "receiver", [&, recv = *recv](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.kernel().MachMsgReceive(recv, &msg), base::Status::kOk);
    EXPECT_EQ(msg.msg_id, 2u);
    got = reinterpret_cast<const char*>(msg.inline_data.data());
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(huge, base::Status::kResourceShortage);
  EXPECT_EQ(queued_after_huge, 0u);
  EXPECT_EQ(heap_taken, 0u);
  EXPECT_EQ(got, "small");
  EXPECT_TRUE(port->queue.empty());
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The heap's bound check cannot wrap: a size near 2^64 is refused, not
// handed an address past the end.
TEST(KernelHeapTest, SizesThatWouldWrapTheBoundAreRefused) {
  KernelHeap heap(0x1000, 0x1000);
  EXPECT_EQ(heap.TryAllocate(~0ull - 0x100).status(), base::Status::kResourceShortage);
  EXPECT_EQ(heap.TryAllocate(0x1001).status(), base::Status::kResourceShortage);
  EXPECT_EQ(heap.bytes_allocated(), 0u);
  auto all = heap.TryAllocate(0x1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 0x1000u);
  EXPECT_EQ(heap.TryAllocate(1).status(), base::Status::kResourceShortage);
}

}  // namespace
}  // namespace mk
