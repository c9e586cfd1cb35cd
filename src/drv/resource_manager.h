// Hardware resource manager (Golub/Sotomayor/Rawson '93): assigns hardware
// resources — device register windows, interrupt lines, DMA channels — to
// drivers using a request/yield/grant scheme. A resource has at most one
// owner; when a second driver requests it, the current owner is asked to
// yield, and the grant happens when (and only when) it does.
#ifndef SRC_DRV_RESOURCE_MANAGER_H_
#define SRC_DRV_RESOURCE_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/base/status.h"
#include "src/mk/kernel.h"

namespace drv {

enum class ResourceKind : uint8_t { kIoWindow, kIrqLine, kDmaChannel };

struct ResourceId {
  ResourceKind kind = ResourceKind::kIoWindow;
  uint64_t id = 0;  // device reg base / IRQ number / channel number
  auto operator<=>(const ResourceId&) const = default;
};

using DriverId = uint32_t;

class ResourceManager {
 public:
  explicit ResourceManager(mk::Kernel& kernel) : kernel_(kernel) {}

  // A driver registers once; `yield_request` is invoked (in the requester's
  // thread context) when another driver wants a resource this driver owns.
  // Returning true means the driver yields immediately; false keeps the
  // requester pending until the owner calls Yield().
  DriverId RegisterDriver(const std::string& name,
                          std::function<bool(const ResourceId&)> yield_request = {});

  // Declares a resource as existing (unowned).
  base::Status DeclareResource(const ResourceId& resource, const std::string& description);

  // Requests ownership. Returns kOk if granted now, kBusy if the owner was
  // asked and declined (request stays queued), kNotFound if undeclared.
  base::Status Request(DriverId driver, const ResourceId& resource);

  // Gives up a resource; the head queued requester (if any) is granted.
  base::Status Yield(DriverId driver, const ResourceId& resource);

  base::Result<DriverId> OwnerOf(const ResourceId& resource) const;
  bool Owns(DriverId driver, const ResourceId& resource) const;

  uint64_t grants() const { return grants_; }
  uint64_t yields() const { return yields_; }

 private:
  struct Driver {
    std::string name;
    std::function<bool(const ResourceId&)> yield_request;
  };
  struct Resource {
    std::string description;
    DriverId owner = 0;  // 0 = unowned
    std::deque<DriverId> pending;
  };

  mk::Kernel& kernel_;
  std::map<DriverId, Driver> drivers_;
  std::map<ResourceId, Resource> resources_;
  DriverId next_driver_ = 1;
  uint64_t grants_ = 0;
  uint64_t yields_ = 0;
};

}  // namespace drv

#endif  // SRC_DRV_RESOURCE_MANAGER_H_
