// Framebuffer driver. Its essential job in WPOS terms: hand the VRAM
// aperture to user-level graphics code (the Presentation-Manager-style
// library) as a device-backed memory object so applications can "directly
// drive the screen buffer" without any server round trips.
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

}  // namespace drv

#endif  // SRC_DRV_FB_DRIVER_H_
