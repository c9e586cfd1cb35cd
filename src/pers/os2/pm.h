// Presentation-Manager-style window system, WPOS configuration: "the
// Presentation Manager [and] the desktop were user-space programs implemented
// as shared libraries ... converted to 32-bit C code". Drawing writes the
// mapped framebuffer aperture directly; window messages travel through a
// coerced shared-memory region with memory-synchronizer wakeups — all at user
// level, no server round trips. This is exactly why the paper's graphics
// workloads broke even on the microkernel system.
#ifndef SRC_PERS_OS2_PM_H_
#define SRC_PERS_OS2_PM_H_

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/drv/fb_driver.h"
#include "src/mk/kernel.h"

namespace pers {

using Hwnd = uint32_t;

struct PmMsg {
  Hwnd hwnd = 0;
  uint32_t msg = 0;
  uint32_t param1 = 0;
  uint32_t param2 = 0;
};

class PmDesktop;

// Per-process view of the desktop (the PM shared library instance loaded
// into the process).
class PmSession {
 public:
  base::Result<Hwnd> CreateWindow(mk::Env& env, const std::string& title, uint32_t x, uint32_t y,
                                  uint32_t w, uint32_t h);
  // Posts to any window on the desktop, including other processes'.
  base::Status PostMsg(mk::Env& env, Hwnd hwnd, uint32_t msg, uint32_t p1, uint32_t p2);
  // Blocks (memory synchronizer) until a message for `hwnd` arrives.
  base::Result<PmMsg> GetMsg(mk::Env& env, Hwnd hwnd);
  base::Result<PmMsg> PeekMsg(mk::Env& env, Hwnd hwnd);  // non-blocking

  // Drawing: direct stores into the mapped aperture.
  base::Status FillRect(mk::Env& env, Hwnd hwnd, uint32_t x, uint32_t y, uint32_t w, uint32_t h,
                        uint8_t color);
  base::Status BitBlt(mk::Env& env, Hwnd hwnd, uint32_t x, uint32_t y, uint32_t w, uint32_t h);

  // Bring a window to the front (window switching, the PM Tasking workload).
  base::Status SwitchTo(mk::Env& env, Hwnd hwnd);

  uint64_t draw_calls() const { return draw_calls_; }

 private:
  friend class PmDesktop;
  PmSession(PmDesktop* desktop, mk::Task* task, hw::VirtAddr vram_base)
      : desktop_(desktop), task_(task), vram_base_(vram_base) {}

  PmDesktop* desktop_;
  mk::Task* task_;
  hw::VirtAddr vram_base_;  // aperture address in this task
  uint64_t draw_calls_ = 0;
};

class PmDesktop {
 public:
  PmDesktop(mk::Kernel& kernel, drv::FbDriver* fb);

  // Loads the PM library into `task`: maps the aperture and the shared
  // message region (coerced, so it sits at the same address everywhere).
  base::Result<std::unique_ptr<PmSession>> Attach(mk::Task& task);

  uint32_t width() const { return fb_->width(); }
  uint32_t height() const { return fb_->height(); }
  size_t window_count() const { return windows_.size(); }
  uint64_t messages_posted() const { return messages_posted_; }
  uint64_t window_switches() const { return window_switches_; }

 private:
  friend class PmSession;

  struct Window {
    std::string title;
    mk::Task* owner = nullptr;
    uint32_t x = 0, y = 0, w = 0, h = 0;
    uint32_t z = 0;  // larger = closer to the front
    std::deque<PmMsg> queue;
    hw::VirtAddr wait_word = 0;  // in the coerced region; GetMsg parks here
  };

  mk::Kernel& kernel_;
  drv::FbDriver* fb_;
  hw::VirtAddr shared_region_ = 0;  // coerced; message words live here
  uint64_t next_word_ = 0;
  std::map<Hwnd, Window> windows_;
  Hwnd next_hwnd_ = 1;
  uint32_t next_z_ = 1;
  uint64_t messages_posted_ = 0;
  uint64_t window_switches_ = 0;
};

}  // namespace pers

#endif  // SRC_PERS_OS2_PM_H_
