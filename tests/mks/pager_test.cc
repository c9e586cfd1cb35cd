#include <gtest/gtest.h>

#include "src/hw/disk.h"
#include "src/mks/pager/default_pager.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mks {
namespace {

class PagerTest : public mk::KernelTest {
 protected:
  PagerTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("paging", 3)));
    pager_task_ = kernel_.CreateTask("default-pager");
    pager_ = std::make_unique<DefaultPager>(kernel_, pager_task_,
                                            std::make_unique<BackdoorBlockStore>(disk_));
  }

  hw::Disk* disk_;
  mk::Task* pager_task_;
  std::unique_ptr<DefaultPager> pager_;
};

TEST_F(PagerTest, UnwrittenPagesPageInAsZeros) {
  auto object = pager_->CreateBackedObject(2 * hw::kPageSize);
  mk::Task* user = kernel_.CreateTask("user");
  auto addr = kernel_.VmMapObject(*user, object, 0, 2 * hw::kPageSize, mk::Prot::kReadWrite, true);
  ASSERT_TRUE(addr.ok());
  uint32_t value = 0xffffffff;
  kernel_.CreateThread(user, "u", [&](mk::Env& env) {
    ASSERT_EQ(env.CopyIn(*addr, &value, 4), base::Status::kOk);
    pager_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(pager_->pageins_served(), 1u);
}

TEST_F(PagerTest, PreloadedContentPagesIn) {
  auto object = pager_->CreateBackedObject(4 * hw::kPageSize);
  std::vector<uint8_t> page(hw::kPageSize, 0xcd);
  ASSERT_EQ(pager_->Preload(object->pager_object_id(), 2, page.data()), base::Status::kOk);
  mk::Task* user = kernel_.CreateTask("user");
  auto addr = kernel_.VmMapObject(*user, object, 0, 4 * hw::kPageSize, mk::Prot::kReadWrite, true);
  ASSERT_TRUE(addr.ok());
  uint8_t b0 = 0xff;
  uint8_t b2 = 0;
  kernel_.CreateThread(user, "u", [&](mk::Env& env) {
    ASSERT_EQ(env.CopyIn(*addr, &b0, 1), base::Status::kOk);
    ASSERT_EQ(env.CopyIn(*addr + 2 * hw::kPageSize, &b2, 1), base::Status::kOk);
    pager_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(b2, 0xcd);
}

// A pager whose partition is `pages` pages from sector `first_lba` of a
// 256-sector disk, and a client task holding a send right to its port.
class PagerPartitionTest : public mk::KernelTest {
 protected:
  static constexpr uint64_t kDiskSectors = 256;

  void StartPager(uint64_t first_lba, uint64_t pages) {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("paging", 3, hw::Disk::Geometry{.sectors = kDiskSectors})));
    auto store = std::make_unique<BackdoorBlockStore>(disk_, 10'000, first_lba,
                                                      pages * DefaultPager::kSectorsPerPage);
    store_ = store.get();
    mk::Task* pager_task = kernel_.CreateTask("default-pager");
    pager_ = std::make_unique<DefaultPager>(kernel_, pager_task, std::move(store));
    client_ = kernel_.CreateTask("client");
    auto send = kernel_.MakeSendRight(*pager_task, pager_->receive_port(), *client_);
    ASSERT_TRUE(send.ok());
    send_ = *send;
  }

  // Pages out one page of `object` filled with `fill`; returns the pager's answer.
  base::Status PageOut(mk::Env& env, uint64_t page_index, uint8_t fill, uint64_t object = 7) {
    const mk::PagerRequest req{
        .op = mk::PagerOp::kDataWrite, .object_id = object, .page_index = page_index};
    std::vector<uint8_t> page(hw::kPageSize, fill);
    mk::RpcRef ref;
    ref.send_data = page.data();
    ref.send_len = hw::kPageSize;
    mk::PagerReply reply{};
    const base::Status st = env.RpcCall(send_, &req, sizeof(req), &reply, sizeof(reply),
                                        nullptr, &ref);
    return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
  }

  // Pages in one page of `object`.
  std::vector<uint8_t> PageIn(mk::Env& env, uint64_t page_index, uint64_t object = 7) {
    const mk::PagerRequest req{
        .op = mk::PagerOp::kDataRequest, .object_id = object, .page_index = page_index};
    std::vector<uint8_t> page(hw::kPageSize);
    mk::RpcRef ref;
    ref.recv_buf = page.data();
    ref.recv_cap = hw::kPageSize;
    mk::PagerReply reply{};
    EXPECT_EQ(env.RpcCall(send_, &req, sizeof(req), &reply, sizeof(reply), nullptr, &ref),
              base::Status::kOk);
    EXPECT_EQ(reply.status, 0);
    EXPECT_EQ(ref.recv_len, hw::kPageSize);
    return page;
  }

  // Sends `object` a lifecycle op (kObjectSetup or kObjectTerminate).
  base::Status Lifecycle(mk::Env& env, mk::PagerOp op, uint64_t object) {
    const mk::PagerRequest req{.op = op, .object_id = object};
    mk::PagerReply reply{};
    const base::Status st = env.RpcCall(send_, &req, sizeof(req), &reply, sizeof(reply));
    return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
  }

  hw::Disk* disk_ = nullptr;
  BackdoorBlockStore* store_ = nullptr;
  std::unique_ptr<DefaultPager> pager_;
  mk::Task* client_ = nullptr;
  mk::PortName send_ = mk::kNullPort;
};

// A full paging partition is a typed answer to the pageout, not a host
// abort, and the pages already out stay readable.
TEST_F(PagerPartitionTest, FullPartitionAnswersResourceShortage) {
  StartPager(0, 8);
  std::vector<base::Status> answers;
  std::vector<uint8_t> page0;
  kernel_.CreateThread(client_, "client", [&](mk::Env& env) {
    for (uint64_t i = 0; i < 9; ++i) {
      answers.push_back(PageOut(env, i, static_cast<uint8_t>(0x10 + i)));
    }
    page0 = PageIn(env, 0);
    pager_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  ASSERT_EQ(answers.size(), 9u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(answers[i], base::Status::kOk) << "pageout " << i;
  }
  EXPECT_EQ(answers[8], base::Status::kResourceShortage);
  EXPECT_EQ(page0, std::vector<uint8_t>(hw::kPageSize, 0x10));
  EXPECT_EQ(pager_->sectors_allocated(), 8 * DefaultPager::kSectorsPerPage);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// A terminated object's sectors go back to the partition: short-lived
// objects that each fill it can follow one another indefinitely.
TEST_F(PagerPartitionTest, TerminatedObjectsSectorsAreReused) {
  constexpr uint64_t kPages = 16;
  StartPager(64, kPages);
  std::vector<base::Status> answers;
  std::vector<std::vector<uint8_t>> last_pages;
  std::vector<uint8_t> terminated_page;
  kernel_.CreateThread(client_, "client", [&](mk::Env& env) {
    for (uint64_t round = 0; round < 3; ++round) {
      const uint64_t object = 100 + round;
      ASSERT_EQ(Lifecycle(env, mk::PagerOp::kObjectSetup, object), base::Status::kOk);
      for (uint64_t i = 0; i < kPages; ++i) {
        answers.push_back(PageOut(env, i, static_cast<uint8_t>(16 * round + i), object));
      }
      last_pages.push_back(PageIn(env, kPages - 1, object));
      ASSERT_EQ(Lifecycle(env, mk::PagerOp::kObjectTerminate, object), base::Status::kOk);
    }
    // A terminated object's page no longer maps to the sector's new owner.
    terminated_page = PageIn(env, 0, 100);
    pager_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  ASSERT_EQ(answers.size(), 3 * kPages);
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], base::Status::kOk) << "round " << i / kPages << ", page " << i % kPages;
  }
  ASSERT_EQ(last_pages.size(), 3u);
  for (uint64_t round = 0; round < 3; ++round) {
    EXPECT_EQ(last_pages[round],
              std::vector<uint8_t>(hw::kPageSize, static_cast<uint8_t>(16 * round + kPages - 1)));
  }
  EXPECT_EQ(terminated_page, std::vector<uint8_t>(hw::kPageSize, 0));
  EXPECT_EQ(pager_->sectors_allocated(), kPages * DefaultPager::kSectorsPerPage);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// A pager on a window of the disk, sectors [64, 128) here, writes only
// there, and its store refuses an extent outside the window.
TEST_F(PagerPartitionTest, WindowedPagerWritesOnlyInsideItsWindow) {
  StartPager(64, 8);
  const std::vector<uint8_t> marker(kDiskSectors * hw::Disk::kSectorSize, 0xee);
  disk_->WriteSectors(0, kDiskSectors, marker.data());
  std::vector<base::Status> answers;
  std::vector<uint8_t> page3;
  base::Status past_end = base::Status::kOk;
  base::Status across_end = base::Status::kOk;
  kernel_.CreateThread(client_, "client", [&](mk::Env& env) {
    for (uint64_t i = 0; i < 9; ++i) {
      answers.push_back(PageOut(env, i, static_cast<uint8_t>(0x20 + i)));
    }
    page3 = PageIn(env, 3);
    std::vector<uint8_t> sectors(8 * hw::Disk::kSectorSize);
    past_end = store_->Write(env, 64, 1, sectors.data());
    across_end = store_->Read(env, 60, 8, sectors.data());
    pager_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  ASSERT_EQ(answers.size(), 9u);
  EXPECT_EQ(answers[7], base::Status::kOk);
  EXPECT_EQ(answers[8], base::Status::kResourceShortage);
  EXPECT_EQ(page3, std::vector<uint8_t>(hw::kPageSize, 0x23));
  EXPECT_EQ(past_end, base::Status::kInvalidArgument);
  EXPECT_EQ(across_end, base::Status::kInvalidArgument);
  std::vector<uint8_t> disk(kDiskSectors * hw::Disk::kSectorSize);
  disk_->ReadSectors(0, kDiskSectors, disk.data());
  for (uint64_t lba = 0; lba < kDiskSectors; ++lba) {
    const bool inside = lba >= 64 && lba < 128;
    const uint8_t want = inside ? static_cast<uint8_t>(0x20 + (lba - 64) / 8) : 0xee;
    EXPECT_EQ(disk[lba * hw::Disk::kSectorSize], want) << "sector " << lba;
    EXPECT_EQ(disk[(lba + 1) * hw::Disk::kSectorSize - 1], want) << "sector " << lba;
  }
}

}  // namespace
}  // namespace mks
