#include "src/pers/os2/pm.h"

#include <algorithm>

namespace pers {

namespace {
// All 32-bit user-level library code (the WPOS conversion).
const hw::CodeRegion& WinMgrRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.pm.window_mgr", 200);
  return r;
}
const hw::CodeRegion& MsgRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.pm.msg", 380);
  return r;
}
const hw::CodeRegion& DrawSetupRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.pm.draw_setup", 140);
  return r;
}
const hw::CodeRegion& DrawLoopRegion() {
  static const hw::CodeRegion r = hw::DefineCode("os2.pm.draw_loop", 40);
  return r;
}
}  // namespace

PmDesktop::PmDesktop(mk::Kernel& kernel, drv::FbDriver* fb) : kernel_(kernel), fb_(fb) {}

base::Result<std::unique_ptr<PmSession>> PmDesktop::Attach(mk::Task& task) {
  if (shared_region_ == 0) {
    auto region = kernel_.VmAllocateCoerced(task, hw::kPageSize);
    if (!region.ok()) {
      return region.status();
    }
    shared_region_ = *region;
  } else {
    const base::Status st = kernel_.VmMapCoerced(task, shared_region_);
    if (st != base::Status::kOk && st != base::Status::kNoSpace) {
      return st;
    }
  }
  auto vram = fb_->MapInto(task);
  if (!vram.ok()) {
    return vram.status();
  }
  return std::unique_ptr<PmSession>(new PmSession(this, &task, *vram));
}

base::Result<Hwnd> PmSession::CreateWindow(mk::Env& env, const std::string& title, uint32_t x,
                                           uint32_t y, uint32_t w, uint32_t h) {
  PmDesktop& d = *desktop_;
  d.kernel_.cpu().Execute(WinMgrRegion());
  if (!drv::RectInside(x, y, w, h, d.width(), d.height())) {
    return base::Status::kInvalidArgument;
  }
  // Each window takes a wait word of the desktop's one shared page for good.
  if (d.next_word_ >= hw::kPageSize / 4) {
    return base::Status::kResourceShortage;
  }
  PmDesktop::Window win;
  win.title = title;
  win.owner = task_;
  win.x = x;
  win.y = y;
  win.w = w;
  win.h = h;
  win.z = d.next_z_++;
  win.wait_word = d.shared_region_ + 4 * d.next_word_++;
  const Hwnd hwnd = d.next_hwnd_++;
  d.windows_.emplace(hwnd, std::move(win));
  return hwnd;
}

base::Status PmSession::PostMsg(mk::Env& env, Hwnd hwnd, uint32_t msg, uint32_t p1,
                                uint32_t p2) {
  PmDesktop& d = *desktop_;
  d.kernel_.cpu().Execute(MsgRegion());
  auto it = d.windows_.find(hwnd);
  if (it == d.windows_.end()) {
    return base::Status::kNotFound;
  }
  it->second.queue.push_back({hwnd, msg, p1, p2});
  ++d.messages_posted_;
  // Bump the shared word and wake any parked receiver — all user level plus
  // the memory-synchronizer wake.
  uint32_t seq = 0;
  (void)env.CopyIn(it->second.wait_word, &seq, 4);
  ++seq;
  (void)env.CopyOut(it->second.wait_word, &seq, 4);
  d.kernel_.MemSyncWake(it->second.wait_word, 1);
  return base::Status::kOk;
}

base::Result<PmMsg> PmSession::PeekMsg(mk::Env& env, Hwnd hwnd) {
  PmDesktop& d = *desktop_;
  d.kernel_.cpu().Execute(MsgRegion());
  auto it = d.windows_.find(hwnd);
  if (it == d.windows_.end()) {
    return base::Status::kNotFound;
  }
  if (it->second.queue.empty()) {
    return base::Status::kWouldBlock;
  }
  PmMsg msg = it->second.queue.front();
  it->second.queue.pop_front();
  return msg;
}

base::Result<PmMsg> PmSession::GetMsg(mk::Env& env, Hwnd hwnd) {
  PmDesktop& d = *desktop_;
  while (true) {
    auto msg = PeekMsg(env, hwnd);
    if (msg.ok() || msg.status() != base::Status::kWouldBlock) {
      return msg;
    }
    auto it = d.windows_.find(hwnd);
    uint32_t seq = 0;
    const base::Status st = env.CopyIn(it->second.wait_word, &seq, 4);
    if (st != base::Status::kOk) {
      return st;
    }
    if (!it->second.queue.empty()) {
      continue;
    }
    (void)d.kernel_.MemSyncWait(it->second.wait_word, seq);
  }
}

base::Status PmSession::FillRect(mk::Env& env, Hwnd hwnd, uint32_t x, uint32_t y, uint32_t w,
                                 uint32_t h, uint8_t color) {
  PmDesktop& d = *desktop_;
  ++draw_calls_;
  d.kernel_.cpu().Execute(DrawSetupRegion());
  auto it = d.windows_.find(hwnd);
  if (it == d.windows_.end()) {
    return base::Status::kNotFound;
  }
  const PmDesktop::Window& win = it->second;
  if (!drv::RectInside(x, y, w, h, win.w, win.h)) {
    return base::Status::kInvalidArgument;
  }
  return drv::FillRows(d.kernel_, *task_, vram_base_, d.width(), win.x + x, win.y + y, w, h,
                       color, DrawLoopRegion);
}

base::Status PmSession::BitBlt(mk::Env& env, Hwnd hwnd, uint32_t x, uint32_t y, uint32_t w,
                               uint32_t h) {
  PmDesktop& d = *desktop_;
  ++draw_calls_;
  d.kernel_.cpu().Execute(DrawSetupRegion());
  auto it = d.windows_.find(hwnd);
  if (it == d.windows_.end()) {
    return base::Status::kNotFound;
  }
  const PmDesktop::Window& win = it->second;
  if (!drv::RectInside(x, y, w, h, win.w, win.h)) {
    return base::Status::kInvalidArgument;
  }
  return drv::BlitRows(d.kernel_, *task_, vram_base_, d.width(), win.x + x, win.y + y, w, h,
                       DrawLoopRegion);
}

base::Status PmSession::SwitchTo(mk::Env& env, Hwnd hwnd) {
  PmDesktop& d = *desktop_;
  d.kernel_.cpu().Execute(WinMgrRegion());
  auto it = d.windows_.find(hwnd);
  if (it == d.windows_.end()) {
    return base::Status::kNotFound;
  }
  PmDesktop::Window& win = it->second;
  // A window that no window above it overlaps is on screen whole already.
  const bool covered = std::any_of(d.windows_.begin(), d.windows_.end(), [&](const auto& entry) {
    const PmDesktop::Window& other = entry.second;
    return other.z > win.z &&
           drv::RectsOverlap(win.x, win.y, win.w, win.h, other.x, other.y, other.w, other.h);
  });
  win.z = d.next_z_++;
  ++d.window_switches_;
  // Activation broadcast: every other window learns about the focus change
  // (WM_ACTIVATE in real PM), through the shared-memory queues.
  for (auto& [other_hwnd, other] : d.windows_) {
    if (other_hwnd != hwnd) {
      (void)PostMsg(env, other_hwnd, /*msg=*/0x0d, hwnd, 0);
    }
  }
  // Bringing a covered window forward repaints it.
  return covered ? BitBlt(env, hwnd, 0, 0, win.w, win.h) : base::Status::kOk;
}

}  // namespace pers
