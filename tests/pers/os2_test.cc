#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/pers/os2/os2.h"
#include "src/pers/os2/pm.h"
#include "tests/mk/kernel_test_fixture.h"

namespace pers {
namespace {

class Os2Test : public mk::KernelTest {
 protected:
  Os2Test() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    fs_ = std::make_unique<svc::FileServer>(kernel_, kernel_.CreateTask("file-server"));
    EXPECT_EQ(fs_->AddVolume("/", store_.get()), base::Status::kOk);
    os2_task_ = kernel_.CreateTask("os2-server");
    os2_ = std::make_unique<Os2Server>(kernel_, os2_task_);
    fs_->StartMkfs();
  }

  void Shutdown() {
    fs_->Stop();
    os2_->Stop();
  }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<svc::FileServer> fs_;
  mk::Task* os2_task_;
  std::unique_ptr<Os2Server> os2_;
};

TEST_F(Os2Test, DosFileApiRoundTrip) {
  Os2Process proc(kernel_, *os2_, *fs_, "works");
  kernel_.CreateThread(proc.task(), "main", [&](mk::Env& env) {
    auto h = proc.DosOpen(env, "/REPORT.DOC", svc::kFsCreate | svc::kFsWrite);
    ASSERT_TRUE(h.ok());
    const char text[] = "quarterly numbers";
    ASSERT_TRUE(proc.DosWrite(env, *h, 0, text, sizeof(text)).ok());
    char buf[64] = {};
    auto got = proc.DosRead(env, *h, 0, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    EXPECT_STREQ(buf, text);
    ASSERT_EQ(proc.DosClose(env, *h), base::Status::kOk);
    // OS/2 names are case-insensitive even on a case-preserving store.
    EXPECT_TRUE(proc.DosOpen(env, "/report.doc", 0).ok());
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_GT(proc.api_calls(), 4u);
}

TEST_F(Os2Test, DosAllocMemIsEagerAndByteSized) {
  Os2Process proc(kernel_, *os2_, *fs_, "memhog");
  kernel_.CreateThread(proc.task(), "main", [&](mk::Env& env) {
    const uint64_t frames_before = machine_.mem().frames_allocated();
    auto mem = proc.DosAllocMem(env, 10'000, kPagCommit);  // 3 pages worth
    ASSERT_TRUE(mem.ok());
    // Eager commitment: frames exist before any touch.
    EXPECT_EQ(machine_.mem().frames_allocated() - frames_before, 3u);
    // Byte-granular size is retained by the OS/2 layer (the microkernel
    // cannot do this — it rounds to pages and forgets).
    auto size = proc.memory().QueryMemSize(*mem);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 10'000u);
    // Suballocation within the object.
    auto a = proc.memory().SubAlloc(env, *mem, 100);
    auto b = proc.memory().SubAlloc(env, *mem, 200);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NE(*a, *b);
    ASSERT_EQ(proc.memory().SubFree(env, *mem, *a), base::Status::kOk);
    ASSERT_EQ(proc.DosFreeMem(env, *mem), base::Status::kOk);
    EXPECT_EQ(proc.memory().committed_pages(), 0u);
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(Os2Test, DoubleMemoryManagementCostsMoreThanRawKernel) {
  Os2Process proc(kernel_, *os2_, *fs_, "foot");
  kernel_.CreateThread(proc.task(), "main", [&](mk::Env& env) {
    // 20 OS/2 allocations of 5000 bytes, committed: OS/2 semantics.
    const uint64_t frames_before = machine_.mem().frames_allocated();
    std::vector<hw::VirtAddr> ptrs;
    for (int i = 0; i < 20; ++i) {
      auto mem = proc.DosAllocMem(env, 5000, kPagCommit);
      ASSERT_TRUE(mem.ok());
      ptrs.push_back(*mem);
    }
    const uint64_t os2_frames = machine_.mem().frames_allocated() - frames_before;
    // The same program on the raw microkernel (lazy): allocations consume no
    // frames until touched, and only touched pages materialize.
    mk::Task* raw = kernel_.CreateTask("raw");
    const uint64_t raw_before = machine_.mem().frames_allocated();
    for (int i = 0; i < 20; ++i) {
      auto addr = kernel_.VmAllocate(*raw, 5000);
      ASSERT_TRUE(addr.ok());
      // Program touches only the first page of each object.
      ASSERT_EQ(kernel_.UserTouch(*raw, *addr, 64, true), base::Status::kOk);
    }
    const uint64_t raw_frames = machine_.mem().frames_allocated() - raw_before;
    EXPECT_EQ(os2_frames, 40u);  // 2 pages per 5000-byte object, all committed
    EXPECT_EQ(raw_frames, 20u);  // one touched page each
    EXPECT_GT(proc.memory().metadata_bytes(), 0u);
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(Os2Test, SystemSemaphoresAcrossProcesses) {
  Os2Process p1(kernel_, *os2_, *fs_, "holder");
  Os2Process p2(kernel_, *os2_, *fs_, "waiter");
  std::vector<int> order;
  uint32_t sem_id = 0;
  kernel_.CreateThread(p1.task(), "main", [&](mk::Env& env) {
    auto sem = p1.DosCreateSem(env, "\\SEM32\\PRINTER");
    ASSERT_TRUE(sem.ok());
    sem_id = *sem;
    ASSERT_EQ(p1.DosRequestSem(env, sem_id), base::Status::kOk);
    order.push_back(1);
    env.Yield();
    env.Yield();
    order.push_back(2);
    ASSERT_EQ(p1.DosReleaseSem(env, sem_id), base::Status::kOk);
  });
  kernel_.CreateThread(p2.task(), "main", [&](mk::Env& env) {
    while (sem_id == 0) {
      env.Yield();
    }
    ASSERT_EQ(p2.DosRequestSem(env, sem_id), base::Status::kOk);
    order.push_back(3);
    ASSERT_EQ(p2.DosReleaseSem(env, sem_id), base::Status::kOk);
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A waiter that is gone by the time the semaphore is released must not
// swallow the release: one waiter's task dies while it is parked, another
// waiter's call times out, and the holder's release still reaches the next
// process that asks.
TEST_F(Os2Test, ReleaseSkipsWaitersThatAreGone) {
  Os2Process holder(kernel_, *os2_, *fs_, "holder");
  Os2Process dying(kernel_, *os2_, *fs_, "dying");
  Os2Process impatient(kernel_, *os2_, *fs_, "impatient");
  Os2Process late(kernel_, *os2_, *fs_, "late");
  const mk::PortName impatient_port = os2_->GrantTo(*impatient.task());
  uint32_t sem_id = 0;
  bool released = false;
  base::Status timed_out = base::Status::kOk;
  base::Status late_request = base::Status::kInternal;
  kernel_.CreateThread(holder.task(), "main", [&](mk::Env& env) {
    auto sem = holder.DosCreateSem(env, "\\SEM32\\SPOOL");
    ASSERT_TRUE(sem.ok());
    ASSERT_EQ(holder.DosRequestSem(env, *sem), base::Status::kOk);
    sem_id = *sem;
    // Both waiters park, and the impatient one's deadline passes.
    ASSERT_EQ(env.SleepNs(2'000'000), base::Status::kOk);
    kernel_.TerminateTask(dying.task());
    ASSERT_EQ(holder.DosReleaseSem(env, sem_id), base::Status::kOk);
    released = true;
  });
  kernel_.CreateThread(dying.task(), "main", [&](mk::Env& env) {
    while (sem_id == 0) {
      env.Yield();
    }
    (void)dying.DosRequestSem(env, sem_id);
  });
  kernel_.CreateThread(impatient.task(), "main", [&](mk::Env& env) {
    while (sem_id == 0) {
      env.Yield();
    }
    Os2Request r;
    r.op = Os2Op::kRequestSem;
    r.value = sem_id;
    Os2Reply reply;
    timed_out = env.RpcCall(impatient_port, &r, sizeof(r), &reply, sizeof(reply), nullptr,
                            nullptr, nullptr, 0, nullptr, /*timeout_ns=*/500'000);
  });
  kernel_.CreateThread(late.task(), "main", [&](mk::Env& env) {
    while (!released) {
      env.Yield();
    }
    late_request = late.DosRequestSem(env, sem_id);
    if (late_request == base::Status::kOk) {
      EXPECT_EQ(late.DosReleaseSem(env, sem_id), base::Status::kOk);
    }
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(timed_out, base::Status::kTimedOut);
  EXPECT_EQ(late_request, base::Status::kOk);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// A process that dies holding a system semaphore must not hold it for good:
// its death passes the semaphore to the first waiter still there, as a
// release would, and the waiter's release reaches the next process.
TEST_F(Os2Test, DeadHoldersSemaphorePassesOn) {
  Os2Process holder(kernel_, *os2_, *fs_, "holder");
  Os2Process waiter(kernel_, *os2_, *fs_, "waiter");
  Os2Process late(kernel_, *os2_, *fs_, "late");
  uint32_t sem_id = 0;
  bool waiter_has_it = false;
  base::Status waited = base::Status::kInternal;
  base::Status late_request = base::Status::kInternal;
  kernel_.CreateThread(holder.task(), "main", [&](mk::Env& env) {
    auto sem = holder.DosCreateSem(env, "\\SEM32\\QUEUE");
    ASSERT_TRUE(sem.ok());
    ASSERT_EQ(holder.DosRequestSem(env, *sem), base::Status::kOk);
    sem_id = *sem;
    ASSERT_EQ(env.SleepNs(1'000'000), base::Status::kOk);  // the waiter parks
    kernel_.TerminateTask(holder.task());
  });
  kernel_.CreateThread(waiter.task(), "main", [&](mk::Env& env) {
    while (sem_id == 0) {
      env.Yield();
    }
    waited = waiter.DosRequestSem(env, sem_id);
    if (waited == base::Status::kOk) {
      waiter_has_it = true;
      ASSERT_EQ(env.SleepNs(1'000'000), base::Status::kOk);  // the late process parks
      EXPECT_EQ(waiter.DosReleaseSem(env, sem_id), base::Status::kOk);
    }
  });
  kernel_.CreateThread(late.task(), "main", [&](mk::Env& env) {
    // Bounded: where the semaphore never passes on, the test fails, not hangs.
    for (int i = 0; i < 100 && !waiter_has_it; ++i) {
      ASSERT_EQ(env.SleepNs(100'000), base::Status::kOk);
    }
    late_request = late.DosRequestSem(env, sem_id);
    EXPECT_EQ(late.DosReleaseSem(env, sem_id), base::Status::kOk);
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(waited, base::Status::kOk);
  EXPECT_EQ(late_request, base::Status::kOk);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Only the holder may release a system semaphore (OS/2's ERROR_NOT_OWNER).
// A release of a free semaphore, or by another process, changes nothing; it
// used to raise the count past 1, and two requests then both got it.
TEST_F(Os2Test, ReleaseByANonHolderIsPermissionDenied) {
  Os2Process owner(kernel_, *os2_, *fs_, "owner");
  Os2Process other(kernel_, *os2_, *fs_, "other");
  uint32_t sem_id = 0;
  int step = 0;
  std::vector<int> order;
  kernel_.CreateThread(owner.task(), "main", [&](mk::Env& env) {
    auto sem = owner.DosCreateSem(env, "\\SEM32\\LOCK");
    ASSERT_TRUE(sem.ok());
    EXPECT_EQ(owner.DosReleaseSem(env, *sem), base::Status::kPermissionDenied);  // free
    ASSERT_EQ(owner.DosRequestSem(env, *sem), base::Status::kOk);
    sem_id = *sem;
    while (step < 1) {  // the other process tries to release it
      env.Yield();
    }
    ASSERT_EQ(owner.DosReleaseSem(env, *sem), base::Status::kOk);
    // Two requests, the owner's first: the other's parks until a release.
    ASSERT_EQ(owner.DosRequestSem(env, *sem), base::Status::kOk);
    order.push_back(1);
    step = 2;
    ASSERT_EQ(env.SleepNs(1'000'000), base::Status::kOk);
    order.push_back(2);
    ASSERT_EQ(owner.DosReleaseSem(env, *sem), base::Status::kOk);
  });
  kernel_.CreateThread(other.task(), "main", [&](mk::Env& env) {
    while (sem_id == 0) {
      env.Yield();
    }
    EXPECT_EQ(other.DosReleaseSem(env, sem_id), base::Status::kPermissionDenied);  // held
    step = 1;
    while (step < 2) {
      env.Yield();
    }
    ASSERT_EQ(other.DosRequestSem(env, sem_id), base::Status::kOk);
    order.push_back(3);
    EXPECT_EQ(other.DosReleaseSem(env, sem_id), base::Status::kOk);
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// The first DosCreateSem makes the server's death-notice port and thread. A
// kernel heap with room for the port but not for the thread's 64 KB message
// window answers kResourceShortage and creates nothing; it must not abort
// the host, and the server keeps serving.
TEST_F(Os2Test, FirstSemaphoreOnANearlyFullHeapIsResourceShortage) {
  Os2Process p(kernel_, *os2_, *fs_, "p");
  kernel_.CreateThread(p.task(), "main", [&](mk::Env& env) {
    fs_->AwaitMkfs(env);  // the format's cache misses take heap too
    for (uint64_t size = mk::KernelConfig().kernel_heap_bytes; size >= 64 * 1024; size /= 2) {
      while (kernel_.heap().TryAllocate(size).ok()) {
      }
    }
    const uint64_t before = kernel_.heap().bytes_allocated();
    EXPECT_EQ(p.DosCreateSem(env, "\\SEM32\\FULL").status(), base::Status::kResourceShortage);
    EXPECT_GE(kernel_.heap().bytes_allocated() - before, 128u) << "the port fit, the thread not";
    EXPECT_EQ(p.DosRequestSem(env, 1), base::Status::kNotFound);
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(Os2Test, UnterminatedSemNameIsInvalidArgument) {
  Os2Process p(kernel_, *os2_, *fs_, "hostile");
  const mk::PortName raw = os2_->GrantTo(*p.task());
  int32_t status = 0;
  kernel_.CreateThread(p.task(), "main", [&](mk::Env& env) {
    Os2Request r;
    r.op = Os2Op::kCreateSem;
    std::memset(r.name, 'x', sizeof(r.name));
    Os2Reply reply;
    ASSERT_EQ(env.RpcCall(raw, &r, sizeof(r), &reply, sizeof(reply)), base::Status::kOk);
    status = reply.status;
    // The server still answers a well-formed request.
    EXPECT_TRUE(p.DosCreateSem(env, "\\SEM32\\CANARY").ok());
    Shutdown();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(status, static_cast<int32_t>(base::Status::kInvalidArgument));
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

class PmTest : public mk::KernelTest {
 protected:
  PmTest() {
    fb_dev_ = new hw::Framebuffer("fb0", &machine_, 640, 480);
    machine_.AddDevice(std::unique_ptr<hw::Device>(fb_dev_));
    fb_ = std::make_unique<drv::FbDriver>(kernel_, fb_dev_);
    desktop_ = std::make_unique<PmDesktop>(kernel_, fb_.get());
  }

  hw::Framebuffer* fb_dev_;
  std::unique_ptr<drv::FbDriver> fb_;
  std::unique_ptr<PmDesktop> desktop_;
};

TEST_F(PmTest, DrawWritesFramebufferDirectly) {
  mk::Task* app = kernel_.CreateTask("klondike");
  auto session_r = desktop_->Attach(*app);
  ASSERT_TRUE(session_r.ok());
  PmSession& session = **session_r;
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto hwnd = session.CreateWindow(env, "Game", 100, 50, 200, 100);
    ASSERT_TRUE(hwnd.ok());
    ASSERT_EQ(session.FillRect(env, *hwnd, 10, 20, 50, 2, 0x5a), base::Status::kOk);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  // Pixel (100+10, 50+20) must carry the color — straight into VRAM.
  const hw::PhysAddr pixel = fb_dev_->vram_base() + (50 + 20) * 640 + (100 + 10);
  EXPECT_EQ(machine_.mem().ReadU8(pixel), 0x5a);
  EXPECT_EQ(machine_.mem().ReadU8(pixel + 49), 0x5a);
  EXPECT_NE(machine_.mem().ReadU8(pixel + 50), 0x5a);
  EXPECT_EQ(session.draw_calls(), 1u);
}

TEST_F(PmTest, CrossProcessWindowMessages) {
  mk::Task* a = kernel_.CreateTask("app-a");
  mk::Task* b = kernel_.CreateTask("app-b");
  auto sa = desktop_->Attach(*a);
  auto sb = desktop_->Attach(*b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  Hwnd wa = 0;
  int volleys = 0;
  kernel_.CreateThread(a, "main", [&](mk::Env& env) {
    auto hwnd = (*sa)->CreateWindow(env, "A", 0, 0, 100, 100);
    ASSERT_TRUE(hwnd.ok());
    wa = *hwnd;
    for (int i = 0; i < 5; ++i) {
      auto msg = (*sa)->GetMsg(env, wa);  // blocks until B posts
      ASSERT_TRUE(msg.ok());
      EXPECT_EQ(msg->msg, 0x100u + i);
      ++volleys;
    }
  });
  kernel_.CreateThread(b, "main", [&](mk::Env& env) {
    while (wa == 0) {
      env.Yield();
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ((*sb)->PostMsg(env, wa, 0x100 + i, 0, 0), base::Status::kOk);
      env.Yield();
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(volleys, 5);
  EXPECT_EQ(desktop_->messages_posted(), 5u);
}

// A switch raises the window and repaints it, every line, only when a
// window above it overlaps it. One that nothing covers is on screen whole
// already: its switch draws nothing.
TEST_F(PmTest, WindowSwitchRepaints) {
  kernel_.tracer().Enable();
  mk::Task* app = kernel_.CreateTask("swp32");
  auto session = desktop_->Attach(*app);
  ASSERT_TRUE(session.ok());
  PmSession& pm = **session;
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    auto w1 = pm.CreateWindow(env, "one", 0, 0, 64, 64);
    auto w2 = pm.CreateWindow(env, "two", 32, 32, 64, 48);
    auto w3 = pm.CreateWindow(env, "three", 200, 200, 64, 64);
    ASSERT_TRUE(w1.ok());
    ASSERT_TRUE(w2.ok());
    ASSERT_TRUE(w3.ok());
    const auto expect_switch = [&](Hwnd hwnd, uint64_t lines, uint64_t draws) {
      const uint64_t lines0 = mk::RegionCalls(kernel_, "os2.pm.draw_loop");
      const uint64_t draws0 = pm.draw_calls();
      ASSERT_EQ(pm.SwitchTo(env, hwnd), base::Status::kOk);
      EXPECT_EQ(mk::RegionCalls(kernel_, "os2.pm.draw_loop") - lines0, lines)
          << "window " << hwnd;
      EXPECT_EQ(pm.draw_calls() - draws0, draws) << "window " << hwnd;
    };
    expect_switch(*w1, 64, 1);  // two covers it
    expect_switch(*w2, 48, 1);  // now one covers two
    expect_switch(*w3, 0, 0);   // overlaps neither
    expect_switch(*w2, 0, 0);   // only three, which it does not meet, is above it
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(desktop_->window_switches(), 4u);
}

// The desktop's one shared page holds 1024 wait words, one per window for
// good. A 1025th window is refused (was a host abort), and the windows
// already made keep working.
TEST_F(PmTest, WindowPastTheSharedPageIsResourceShortage) {
  mk::Task* app = kernel_.CreateTask("window-hog");
  auto session_r = desktop_->Attach(*app);
  ASSERT_TRUE(session_r.ok());
  PmSession& session = **session_r;
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    const uint32_t words = hw::kPageSize / 4;
    Hwnd first = 0;
    for (uint32_t i = 0; i < words; ++i) {
      auto hwnd = session.CreateWindow(env, "w", 0, 0, 8, 8);
      ASSERT_TRUE(hwnd.ok()) << "window " << i;
      if (i == 0) {
        first = *hwnd;
      }
    }
    EXPECT_EQ(session.CreateWindow(env, "one too many", 0, 0, 8, 8).status(),
              base::Status::kResourceShortage);
    ASSERT_EQ(session.PostMsg(env, first, 0x200, 1, 2), base::Status::kOk);
    auto msg = session.GetMsg(env, first);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->msg, 0x200u);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Every rectangle below has an x + w or y + h that wraps past 2^32 to a value
// inside its bound; each must be refused before anything is drawn.
TEST_F(PmTest, WrappedRectanglesAreInvalidArgument) {
  constexpr uint32_t kHuge = 0xFFFFFFFA;
  mk::Task* app = kernel_.CreateTask("hostile-draw");
  auto session_r = desktop_->Attach(*app);
  ASSERT_TRUE(session_r.ok());
  PmSession& session = **session_r;
  kernel_.CreateThread(app, "main", [&](mk::Env& env) {
    EXPECT_EQ(session.CreateWindow(env, "wide", 10, 0, kHuge, 10).status(),
              base::Status::kInvalidArgument);
    EXPECT_EQ(session.CreateWindow(env, "tall", 0, 10, 10, kHuge).status(),
              base::Status::kInvalidArgument);
    auto hwnd = session.CreateWindow(env, "Game", 100, 50, 200, 100);
    ASSERT_TRUE(hwnd.ok());
    EXPECT_EQ(session.FillRect(env, *hwnd, 10, 10, kHuge, 1, 0x5a),
              base::Status::kInvalidArgument);
    EXPECT_EQ(session.FillRect(env, *hwnd, 10, 10, 1, kHuge, 0x5a),
              base::Status::kInvalidArgument);
    EXPECT_EQ(session.BitBlt(env, *hwnd, 10, 10, kHuge, 1), base::Status::kInvalidArgument);
    EXPECT_EQ(session.BitBlt(env, *hwnd, 10, 10, 1, kHuge), base::Status::kInvalidArgument);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  std::vector<uint8_t> vram(640 * 480);
  machine_.mem().Read(fb_dev_->vram_base(), vram.data(), vram.size());
  EXPECT_EQ(std::count_if(vram.begin(), vram.end(), [](uint8_t px) { return px != 0; }), 0)
      << "pixels painted";
}

}  // namespace
}  // namespace pers
