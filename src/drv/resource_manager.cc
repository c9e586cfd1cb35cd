#include "src/drv/resource_manager.h"

#include "src/base/log.h"

namespace drv {

namespace {
const hw::CodeRegion& RequestRegion() {
  static const hw::CodeRegion r = hw::DefineCode("drv.rm.request", 190);
  return r;
}
const hw::CodeRegion& GrantRegion() {
  static const hw::CodeRegion r = hw::DefineCode("drv.rm.grant", 110);
  return r;
}
}  // namespace

DriverId ResourceManager::RegisterDriver(const std::string& name,
                                         std::function<bool(const ResourceId&)> yield_request) {
  const DriverId id = next_driver_++;
  drivers_.emplace(id, Driver{name, std::move(yield_request)});
  return id;
}

base::Status ResourceManager::DeclareResource(const ResourceId& resource,
                                              const std::string& description) {
  if (resources_.contains(resource)) {
    return base::Status::kAlreadyExists;
  }
  resources_.emplace(resource, Resource{.description = description});
  return base::Status::kOk;
}

base::Status ResourceManager::Request(DriverId driver, const ResourceId& resource) {
  kernel_.cpu().Execute(RequestRegion());
  if (!drivers_.contains(driver)) {
    return base::Status::kInvalidArgument;
  }
  auto it = resources_.find(resource);
  if (it == resources_.end()) {
    return base::Status::kNotFound;
  }
  Resource& r = it->second;
  if (r.owner == driver) {
    return base::Status::kOk;
  }
  if (r.owner == 0) {
    r.owner = driver;
    ++grants_;
    kernel_.cpu().Execute(GrantRegion());
    return base::Status::kOk;
  }
  // Ask the owner to yield.
  Driver& owner = drivers_.at(r.owner);
  if (owner.yield_request && owner.yield_request(resource)) {
    ++yields_;
    r.owner = driver;
    ++grants_;
    kernel_.cpu().Execute(GrantRegion());
    return base::Status::kOk;
  }
  r.pending.push_back(driver);
  return base::Status::kBusy;
}

base::Status ResourceManager::Yield(DriverId driver, const ResourceId& resource) {
  auto it = resources_.find(resource);
  if (it == resources_.end()) {
    return base::Status::kNotFound;
  }
  Resource& r = it->second;
  if (r.owner != driver) {
    return base::Status::kPermissionDenied;
  }
  ++yields_;
  r.owner = 0;
  if (!r.pending.empty()) {
    r.owner = r.pending.front();
    r.pending.pop_front();
    ++grants_;
    kernel_.cpu().Execute(GrantRegion());
  }
  return base::Status::kOk;
}

base::Result<DriverId> ResourceManager::OwnerOf(const ResourceId& resource) const {
  auto it = resources_.find(resource);
  if (it == resources_.end()) {
    return base::Status::kNotFound;
  }
  if (it->second.owner == 0) {
    return base::Status::kNotFound;
  }
  return it->second.owner;
}

bool ResourceManager::Owns(DriverId driver, const ResourceId& resource) const {
  auto it = resources_.find(resource);
  return it != resources_.end() && it->second.owner == driver;
}

}  // namespace drv
