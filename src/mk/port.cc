#include "src/mk/port.h"

#include <algorithm>
#include <vector>

#include "src/base/log.h"
#include "src/mk/message.h"

namespace mk {

PortName PortSpace::Insert(Port* port, RightType type) {
  if (type == RightType::kSend) {
    auto it = send_names_.find(port);
    if (it != send_names_.end()) {
      ++rights_[it->second].refs;
      return it->second;
    }
  }
  const PortName name = next_name_++;
  rights_.emplace(name, PortRight{.port = port, .type = type, .refs = 1});
  if (type == RightType::kSend) {
    send_names_.emplace(port, name);
  }
  return name;
}

base::Result<PortRight*> PortSpace::Lookup(PortName name) {
  auto it = rights_.find(name);
  if (it == rights_.end()) {
    return base::Status::kInvalidName;
  }
  return &it->second;
}

base::Result<Port*> PortSpace::LookupSendable(PortName name) {
  auto r = Lookup(name);
  if (!r.ok()) {
    return r.status();
  }
  PortRight* right = *r;
  // A receive right also allows sending to self (Mach permits this via the
  // implicit make-send on the name); it keeps server bootstrap simple.
  if (right->port->dead()) {
    return base::Status::kPortDead;
  }
  return right->port;
}

base::Result<Port*> PortSpace::LookupReceive(PortName name) {
  auto r = Lookup(name);
  if (!r.ok()) {
    return r.status();
  }
  PortRight* right = *r;
  if (right->type != RightType::kReceive) {
    return base::Status::kInvalidRight;
  }
  return right->port;
}

base::Status PortSpace::Release(PortName name) {
  auto it = rights_.find(name);
  if (it == rights_.end()) {
    return base::Status::kInvalidName;
  }
  if (--it->second.refs == 0) {
    if (it->second.type == RightType::kSend) {
      send_names_.erase(it->second.port);
    }
    rights_.erase(it);
  }
  return base::Status::kOk;
}

void PortSpace::ForEachRight(const std::function<void(PortName, const PortRight&)>& fn) const {
  // Visit in name order: callers build diagnostic structures whose layout
  // must not depend on hash-table iteration order.
  std::vector<PortName> names;
  names.reserve(rights_.size());
  for (const auto& [name, right] : rights_) {  // unordered-ok: sorted below
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  for (PortName name : names) {
    fn(name, rights_.at(name));
  }
}

}  // namespace mk
