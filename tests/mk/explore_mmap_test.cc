// Schedule exploration over the mmap fault path: two threads of one task
// storing into the same MAP_PRIVATE page concurrently. A private mapping is
// an anonymous shadow object over the file-backed object (see
// UnixProcess::Mmap), so the racing stores both drive copy-on-write faults
// against the same shadow page. Under every interleaving within the
// preemption bound, neither store may be lost, no schedule may deadlock, and
// the lockset/race analysis must stay quiet.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/hw/machine.h"
#include "src/mk/analysis/explore/explorer.h"
#include "src/mk/kernel.h"
#include "src/mk/vm_object.h"
#include "tests/mk/explore_fixture.h"

namespace mk {
namespace {

using analysis::explore::Options;
using analysis::explore::Result;

constexpr uint8_t kStoreA = 0xA1;
constexpr uint8_t kStoreB = 0xB2;
// Same page — so the two threads race on the copy-on-write fault — but
// distinct 16-byte cells, so the accesses themselves are not a user-level
// data race and the lockset analysis must stay quiet.
constexpr uint64_t kOffsetA = 0;
constexpr uint64_t kOffsetB = 64;

// Per-schedule workload state; Setup runs once per explored schedule with a
// fresh kernel, so everything here is rebuilt each time.
struct PrivateFaultState {
  Task* task = nullptr;
  hw::VirtAddr base = 0;
  std::shared_ptr<VmObject> backing;
  std::shared_ptr<VmObject> shadow;
};

PrivateFaultState& State() {
  static PrivateFaultState state;
  return state;
}

void PrivatePageFaultWorkload(Kernel& kernel) {
  PrivateFaultState& s = State();
  s = PrivateFaultState{};
  s.backing = std::make_shared<VmObject>(hw::kPageSize);
  s.shadow = std::make_shared<VmObject>(hw::kPageSize);
  s.shadow->SetShadow(s.backing);
  s.task = kernel.CreateTask("mmap-race");
  auto addr = kernel.VmMapObject(*s.task, s.shadow, 0, hw::kPageSize, Prot::kReadWrite,
                                 /*anywhere=*/true);
  ASSERT_TRUE(addr.ok());
  s.base = *addr;

  struct Worker {
    const char* name;
    uint64_t offset;
    uint8_t value;
  };
  const Worker workers[2] = {{"fault-a", kOffsetA, kStoreA}, {"fault-b", kOffsetB, kStoreB}};
  for (const Worker& w : workers) {
    kernel.CreateThread(s.task, w.name, [w](Env& env) {
      Kernel& k = env.kernel();
      PrivateFaultState& st = State();
      env.Yield();  // open an interleaving point before the faulting store
      uint8_t value = w.value;
      EXPECT_EQ(k.CopyOut(*st.task, st.base + w.offset, &value, 1), base::Status::kOk);
      env.Yield();  // and one between the store and the read-back
      uint8_t readback = 0;
      EXPECT_EQ(k.CopyIn(*st.task, st.base + w.offset, &readback, 1), base::Status::kOk);
      // A thread's own store must survive the other thread's concurrent
      // copy-on-write break of the same page.
      EXPECT_EQ(readback, w.value) << "store at offset " << w.offset << " was lost";
    });
  }
}

bool VerifyNoLostUpdate(Kernel& kernel, std::string* message) {
  PrivateFaultState& s = State();
  uint8_t a = 0;
  uint8_t b = 0;
  if (kernel.CopyIn(*s.task, s.base + kOffsetA, &a, 1) != base::Status::kOk ||
      kernel.CopyIn(*s.task, s.base + kOffsetB, &b, 1) != base::Status::kOk) {
    *message = "final mapped read failed";
    return false;
  }
  if (a != kStoreA || b != kStoreB) {
    *message = "lost update: page holds [" + std::to_string(a) + "," + std::to_string(b) +
               "], want [" + std::to_string(kStoreA) + "," + std::to_string(kStoreB) + "]";
    return false;
  }
  // Private dirt must stay in the shadow: the backing (file-side) object
  // never sees either store.
  if (s.backing->resident_pages() != 0) {
    *message = "private store leaked into the backing object";
    return false;
  }
  return true;
}

TEST(ExploreMmapTest, ConcurrentPrivatePageFaultsLoseNoUpdate) {
  Options options;
  options.name = "mmap_private_fault";
  options.preemption_bound = EnvPreemptionBound(2);
  Result result = RunExploration(options, PrivatePageFaultWorkload, VerifyNoLostUpdate);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f.kind << ": " << f.message;
  }
  for (const auto& r : result.races) {
    ADD_FAILURE() << "race: " << r.Describe();
  }
  EXPECT_TRUE(result.lock_order_cycles.empty());
  // Both workers yield around the faulting store, so the explorer must see
  // more than the single round-robin schedule.
  EXPECT_GT(result.schedules, 1u);
}

}  // namespace
}  // namespace mk
