#include <cstring>

#include "tests/mk/kernel_test_fixture.h"
#include "src/mk/pager_protocol.h"
#include "src/mk/vm_object.h"

namespace mk {
namespace {

TEST_F(KernelTest, AllocateTouchFaultsLazily) {
  Task* task = kernel_.CreateTask("t");
  auto addr = kernel_.VmAllocate(*task, 8 * hw::kPageSize);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(task->faults_taken, 0u);
  // Lazy allocation: no frames consumed until touch.
  const uint64_t frames_before = machine_.mem().frames_allocated();
  kernel_.CreateThread(task, "w", [&](Env& env) {
    ASSERT_EQ(env.Touch(*addr, 3 * hw::kPageSize, /*write=*/true), base::Status::kOk);
  });
  kernel_.Run();
  EXPECT_EQ(task->faults_taken, 3u);
  EXPECT_EQ(task->zero_fills, 3u);
  EXPECT_EQ(machine_.mem().frames_allocated() - frames_before, 3u);
}

TEST_F(KernelTest, CopyOutCopyInRoundTrip) {
  Task* task = kernel_.CreateTask("t");
  auto addr = kernel_.VmAllocate(*task, hw::kPageSize * 2);
  ASSERT_TRUE(addr.ok());
  kernel_.CreateThread(task, "w", [&](Env& env) {
    const char msg[] = "spanning page boundaries is fine";
    // Place the write so it crosses the page boundary.
    const hw::VirtAddr dst = *addr + hw::kPageSize - 10;
    ASSERT_EQ(env.CopyOut(dst, msg, sizeof(msg)), base::Status::kOk);
    char out[sizeof(msg)] = {};
    ASSERT_EQ(env.CopyIn(dst, out, sizeof(msg)), base::Status::kOk);
    EXPECT_STREQ(out, msg);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(KernelTest, UnmappedAccessFails) {
  Task* task = kernel_.CreateTask("t");
  kernel_.CreateThread(task, "w", [&](Env& env) {
    char b;
    EXPECT_EQ(env.CopyIn(0x6666'0000, &b, 1), base::Status::kInvalidAddress);
  });
  kernel_.Run();
}

TEST_F(KernelTest, ProtectionFailureOnWriteToReadOnly) {
  Task* task = kernel_.CreateTask("t");
  auto object = std::make_shared<VmObject>(hw::kPageSize);
  auto addr = kernel_.VmMapObject(*task, object, 0, hw::kPageSize, Prot::kRead,
                                  /*anywhere=*/true);
  ASSERT_TRUE(addr.ok());
  kernel_.CreateThread(task, "w", [&](Env& env) {
    char b = 1;
    EXPECT_EQ(env.CopyOut(*addr, &b, 1), base::Status::kProtectionFailure);
    EXPECT_EQ(env.CopyIn(*addr, &b, 1), base::Status::kOk);  // reads still fine
    // The page is resident now, and still refuses the store.
    EXPECT_EQ(env.CopyOut(*addr, &b, 1), base::Status::kProtectionFailure);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(KernelTest, DeallocateRemovesMapping) {
  Task* task = kernel_.CreateTask("t");
  auto addr = kernel_.VmAllocate(*task, hw::kPageSize);
  ASSERT_TRUE(addr.ok());
  kernel_.CreateThread(task, "w", [&](Env& env) {
    ASSERT_EQ(env.Touch(*addr, 8, true), base::Status::kOk);
    ASSERT_EQ(env.kernel().VmDeallocate(env.task(), *addr, hw::kPageSize), base::Status::kOk);
    char b;
    EXPECT_EQ(env.CopyIn(*addr, &b, 1), base::Status::kInvalidAddress);
  });
  kernel_.Run();
}

TEST_F(KernelTest, SharedObjectMappingIsCoherent) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto object = std::make_shared<VmObject>(hw::kPageSize);
  auto va = kernel_.VmMapObject(*a, object, 0, hw::kPageSize, Prot::kReadWrite, true);
  auto vb = kernel_.VmMapObject(*b, object, 0, hw::kPageSize, Prot::kReadWrite, true);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  uint32_t seen = 0;
  kernel_.CreateThread(a, "writer", [&](Env& env) {
    uint32_t v = 0xc0ffee;
    ASSERT_EQ(env.CopyOut(*va, &v, 4), base::Status::kOk);
  });
  kernel_.CreateThread(b, "reader", [&](Env& env) {
    env.Yield();  // writer first
    ASSERT_EQ(env.CopyIn(*vb, &seen, 4), base::Status::kOk);
  });
  kernel_.Run();
  EXPECT_EQ(seen, 0xc0ffeeu);
}

TEST_F(KernelTest, CoercedMemorySameAddressEverywhere) {
  Task* a = kernel_.CreateTask("a");
  Task* b = kernel_.CreateTask("b");
  auto addr = kernel_.VmAllocateCoerced(*a, hw::kPageSize);
  ASSERT_TRUE(addr.ok());
  EXPECT_GE(*addr, VmMap::kCoercedMin);
  ASSERT_EQ(kernel_.VmMapCoerced(*b, *addr), base::Status::kOk);
  // Same numeric address is valid in both address spaces and aliases the
  // same memory — the OS/2 shared-memory assumption.
  uint32_t seen = 0;
  kernel_.CreateThread(a, "writer", [&](Env& env) {
    uint32_t v = 1234;
    ASSERT_EQ(env.CopyOut(*addr, &v, 4), base::Status::kOk);
  });
  kernel_.CreateThread(b, "reader", [&](Env& env) {
    env.Yield();
    ASSERT_EQ(env.CopyIn(*addr, &seen, 4), base::Status::kOk);
  });
  kernel_.Run();
  EXPECT_EQ(seen, 1234u);
}

TEST_F(KernelTest, CoercedRangeNeverCollidesWithAnywhereAllocations) {
  Task* a = kernel_.CreateTask("a");
  auto coerced = kernel_.VmAllocateCoerced(*a, hw::kPageSize);
  ASSERT_TRUE(coerced.ok());
  for (int i = 0; i < 50; ++i) {
    auto v = kernel_.VmAllocate(*a, hw::kPageSize * 16);
    ASSERT_TRUE(v.ok());
    EXPECT_LT(*v, VmMap::kCoercedMin);
  }
}

TEST_F(KernelTest, ExternalPagerSuppliesPages) {
  Task* pager_task = kernel_.CreateTask("pager");
  Task* user_task = kernel_.CreateTask("user");
  auto pager_port_name = kernel_.PortAllocate(*pager_task);
  ASSERT_TRUE(pager_port_name.ok());
  Port* pager_port = *kernel_.ResolvePort(*pager_task, *pager_port_name);

  auto object = std::make_shared<VmObject>(4 * hw::kPageSize);
  kernel_.RegisterPagedObject(object, pager_port, 0);
  auto addr = kernel_.VmMapObject(*user_task, object, 0, 4 * hw::kPageSize, Prot::kReadWrite,
                                  /*anywhere=*/true);
  ASSERT_TRUE(addr.ok());

  // Pager thread: serves exactly two page-in requests, filling each page
  // with a byte derived from its index.
  kernel_.CreateThread(pager_task, "pager", [&, port = *pager_port_name](Env& env) {
    for (int i = 0; i < 2; ++i) {
      PagerRequest req;
      auto r = env.RpcReceive(port, &req, sizeof(req));
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(req.op, PagerOp::kDataRequest);
      std::vector<uint8_t> page(hw::kPageSize,
                                static_cast<uint8_t>(0xa0 + req.page_index));
      PagerReply reply{};
      env.RpcReply(r->token, &reply, sizeof(reply), page.data(),
                   static_cast<uint32_t>(page.size()));
    }
  });
  uint8_t page0 = 0;
  uint8_t page2 = 0;
  kernel_.CreateThread(user_task, "user", [&](Env& env) {
    ASSERT_EQ(env.CopyIn(*addr, &page0, 1), base::Status::kOk);
    ASSERT_EQ(env.CopyIn(*addr + 2 * hw::kPageSize, &page2, 1), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(page0, 0xa0);
  EXPECT_EQ(page2, 0xa2);
  EXPECT_EQ(user_task->pageins, 2u);
}

TEST_F(KernelTest, DeviceBackedObjectMapsAperture) {
  Task* task = kernel_.CreateTask("t");
  auto frames = machine_.mem().AllocContiguous(2);
  ASSERT_TRUE(frames.ok());
  auto object = std::make_shared<VmObject>(2 * hw::kPageSize);
  object->SetDeviceWindow(*frames);
  auto addr = kernel_.VmMapObject(*task, object, 0, 2 * hw::kPageSize, Prot::kReadWrite, true);
  ASSERT_TRUE(addr.ok());
  kernel_.CreateThread(task, "w", [&](Env& env) {
    uint32_t v = 0xfb0;
    ASSERT_EQ(env.CopyOut(*addr + hw::kPageSize, &v, 4), base::Status::kOk);
  });
  kernel_.Run();
  // The write landed directly in the aperture frames.
  EXPECT_EQ(machine_.mem().ReadU32(*frames + hw::kPageSize), 0xfb0u);
}

}  // namespace
}  // namespace mk
