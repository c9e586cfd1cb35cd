// Framebuffer driver. Its essential job in WPOS terms: hand the VRAM
// aperture to user-level graphics code (the Presentation-Manager-style
// library) as a device-backed memory object so applications can "directly
// drive the screen buffer" without any server round trips. The monolithic
// comparator maps the same aperture, and both window systems draw through
// the rectangle check and scanline loops below.
#ifndef SRC_DRV_FB_DRIVER_H_
#define SRC_DRV_FB_DRIVER_H_

#include <memory>

#include "src/hw/framebuffer.h"
#include "src/mk/kernel.h"
#include "src/mk/vm_object.h"

namespace drv {

class FbDriver {
 public:
  FbDriver(mk::Kernel& kernel, hw::Framebuffer* fb) : kernel_(kernel), fb_(fb) {
    vram_object_ = std::make_shared<mk::VmObject>(hw::PageRound(fb_->vram_size()));
    vram_object_->SetDeviceWindow(fb_->vram_base());
  }

  uint32_t width() const { return fb_->width(); }
  uint32_t height() const { return fb_->height(); }

  // Maps the aperture into `task`; returns the client-visible base address.
  base::Result<hw::VirtAddr> MapInto(mk::Task& task) {
    ++mappings_;
    return kernel_.VmMapObject(task, vram_object_, 0, hw::PageRound(fb_->vram_size()),
                               mk::Prot::kReadWrite, /*anywhere=*/true);
  }

  uint64_t mappings() const { return mappings_; }

 private:
  mk::Kernel& kernel_;
  hw::Framebuffer* fb_;
  std::shared_ptr<mk::VmObject> vram_object_;
  uint64_t mappings_ = 0;
};

// Whether the w x h rectangle at (x, y) lies inside a width x height one. No
// `x + w`, which wraps for a huge width.
inline bool RectInside(uint32_t x, uint32_t y, uint32_t w, uint32_t h, uint32_t width,
                       uint32_t height) {
  return w <= width && x <= width - w && h <= height && y <= height - h;
}

// Whether the w1 x h1 rectangle at (x1, y1) and the w2 x h2 one at (x2, y2)
// share a pixel. The ends are summed in 64 bits, where no `x + w` wraps.
inline bool RectsOverlap(uint32_t x1, uint32_t y1, uint32_t w1, uint32_t h1, uint32_t x2,
                         uint32_t y2, uint32_t w2, uint32_t h2) {
  const auto meet = [](uint64_t a, uint64_t la, uint64_t b, uint64_t lb) {
    return la != 0 && lb != 0 && a < b + lb && b < a + la;
  };
  return meet(x1, w1, x2, w2) && meet(y1, h1, y2, h2);
}

// The draw loops: one scanline at a time of the w x h rectangle at (x, y)
// of the aperture mapped at `vram` in `task`, `width` bytes to a line. Each
// line charges `loop`, an accessor, so that the region is defined on the
// first line drawn.
using LoopRegion = const hw::CodeRegion& (*)();

// Direct aperture stores.
inline base::Status FillRows(mk::Kernel& kernel, mk::Task& task, hw::VirtAddr vram,
                             uint32_t width, uint32_t x, uint32_t y, uint32_t w, uint32_t h,
                             uint8_t color, LoopRegion loop) {
  for (uint32_t row = 0; row < h; ++row) {
    kernel.cpu().ExecuteInstructions(loop(), 8 + w / 8);
    const uint64_t offset = static_cast<uint64_t>(y + row) * width + x;
    const base::Status st = kernel.UserFill(task, vram + offset, color, w);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return base::Status::kOk;
}

// Read-modify-write of the aperture (a blit touches source and target).
inline base::Status BlitRows(mk::Kernel& kernel, mk::Task& task, hw::VirtAddr vram,
                             uint32_t width, uint32_t x, uint32_t y, uint32_t w, uint32_t h,
                             LoopRegion loop) {
  for (uint32_t row = 0; row < h; ++row) {
    kernel.cpu().ExecuteInstructions(loop(), 8 + w / 4);
    const uint64_t offset = static_cast<uint64_t>(y + row) * width + x;
    base::Status st = kernel.UserTouch(task, vram + offset, w, /*write=*/false);
    if (st != base::Status::kOk) {
      return st;
    }
    st = kernel.UserTouch(task, vram + offset, w, /*write=*/true);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  return base::Status::kOk;
}

}  // namespace drv

#endif  // SRC_DRV_FB_DRIVER_H_
