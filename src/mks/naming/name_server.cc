#include "src/mks/naming/name_server.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"

namespace mks {

namespace {
const hw::CodeRegion& ParseRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.name.parse", 180);
  return r;
}
const hw::CodeRegion& ComponentRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.name.component", 140);
  return r;
}
const hw::CodeRegion& AttrRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.name.attr_match", 90);
  return r;
}
const hw::CodeRegion& NotifyRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.name.notify", 130);
  return r;
}

std::string Canonical(const char* raw) {
  std::string name(raw);
  while (name.size() > 1 && name.back() == '/') {
    name.pop_back();
  }
  if (name.empty() || name.front() != '/') {
    name.insert(name.begin(), '/');
  }
  return name;
}

bool IsDirectChild(const std::string& dir, const std::string& name) {
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  return name.find('/', prefix.size()) == std::string::npos;
}
}  // namespace

NameServer::NameServer(mk::Kernel& kernel, mk::Task* task) : kernel_(kernel), task_(task) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  loop_ = std::make_unique<mk::ServerLoop>(receive_port_, "naming",
                                           sizeof(Attribute) * kMaxAttrsPerEntry);
  kernel_.CreateThread(task_, "name-server", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 2);
}

mk::PortName NameServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void NameServer::Stop() { loop_->Stop(); }

void NameServer::ChargeNameWalk(const std::string& name) {
  kernel_.cpu().Execute(ParseRegion());
  size_t components = 0;
  std::string prefix;
  for (size_t i = 1; i <= name.size(); ++i) {
    if (i == name.size() || name[i] == '/') {
      ++components;
      prefix = name.substr(0, i);
      kernel_.cpu().Execute(ComponentRegion());
      auto it = entries_.lower_bound(prefix);
      if (it != entries_.end() && it->second.sim_addr != 0) {
        kernel_.cpu().AccessData(it->second.sim_addr, 48, /*write=*/false);
      }
    }
  }
}

void NameServer::Serve(mk::Env& env) {
  static const hw::CodeRegion kLoop = hw::DefineCode("loop.naming", mk::Costs::kRpcServerLoop);
  static const hw::CodeRegion kStub = hw::DefineCode("stub.naming", mk::Costs::kRpcServerStub);
  loop_->Run<NameRequest>(env, [&](mk::Env& env, const mk::RpcRequest& req, const NameRequest& r,
                                   const uint8_t* ref, uint32_t ref_len) {
    kernel_.cpu().Execute(kLoop);
    kernel_.cpu().Execute(kStub);
    Answer a;
    base::Status st = base::Status::kInvalidArgument;
    // The one validation point for untrusted requests: every handler may
    // treat name as a C string.
    if (std::memchr(r.name, '\0', kMaxNameLen) != nullptr) {
      switch (r.op) {
        case NameOp::kRegister:
          st = HandleRegister(env, req, r, ref, ref_len);
          break;
        case NameOp::kResolve:
          st = HandleResolve(r, a);
          break;
        case NameOp::kUnregister:
          st = HandleUnregister(env, r);
          break;
        case NameOp::kList:
          st = HandleList(r, a);
          break;
        case NameOp::kSearch:
          st = HandleSearch(r, a);
          break;
        case NameOp::kSetAttr:
          st = HandleSetAttr(env, r);
          break;
        case NameOp::kGetAttr:
          st = HandleGetAttr(r, a);
          break;
        case NameOp::kWatch:
          st = HandleWatch(req, r);
          break;
        default:
          st = base::Status::kNotSupported;
      }
    }
    if (st != base::Status::kOk) {
      // A failed operation answers its status alone.
      a = Answer{.reply = {.status = static_cast<int32_t>(st)}};
    }
    loop_->Reply(req, &a.reply, sizeof(a.reply), a.results.data(),
                 static_cast<uint32_t>(a.results.size() * sizeof(NameListEntry)), a.grant);
  });
}

base::Status NameServer::HandleRegister(mk::Env& env, const mk::RpcRequest& req,
                                        const NameRequest& r, const uint8_t* ref,
                                        uint32_t ref_len) {
  const std::string name = Canonical(r.name);
  ChargeNameWalk(name);
  if (req.rights.empty()) {
    return base::Status::kInvalidArgument;
  }
  if (entries_.contains(name)) {
    return base::Status::kAlreadyExists;
  }
  // A node the kernel heap cannot hold is refused before anything changes.
  const base::Result<hw::PhysAddr> sim_addr = kernel_.heap().TryAllocate(128);
  if (!sim_addr.ok()) {
    return sim_addr.status();
  }
  Node node;
  node.right = req.rights.front();
  node.sim_addr = *sim_addr;
  const uint32_t n_attrs = std::min(r.attr_count, kMaxAttrsPerEntry);
  for (uint32_t i = 0; i < n_attrs && (i + 1) * sizeof(Attribute) <= ref_len; ++i) {
    Attribute a;
    std::memcpy(&a, ref + i * sizeof(Attribute), sizeof(Attribute));
    node.attrs.push_back(a);
  }
  entries_.emplace(name, std::move(node));
  ++registrations_;
  NotifyWatchers(env, 1, name);
  return base::Status::kOk;
}

base::Status NameServer::HandleResolve(const NameRequest& r, Answer& a) {
  const std::string name = Canonical(r.name);
  ChargeNameWalk(name);
  ++resolves_;
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return base::Status::kNotFound;
  }
  kernel_.cpu().AccessData(it->second.sim_addr, 48, /*write=*/false);
  a.grant = it->second.right;
  return base::Status::kOk;
}

base::Status NameServer::HandleUnregister(mk::Env& env, const NameRequest& r) {
  const std::string name = Canonical(r.name);
  ChargeNameWalk(name);
  if (entries_.erase(name) == 0) {
    return base::Status::kNotFound;
  }
  NotifyWatchers(env, 2, name);
  return base::Status::kOk;
}

base::Status NameServer::HandleList(const NameRequest& r, Answer& a) {
  const std::string dir = Canonical(r.name);
  ChargeNameWalk(dir);
  for (const auto& [name, node] : entries_) {
    kernel_.cpu().Execute(ComponentRegion());
    if (IsDirectChild(dir, name) && a.results.size() < kMaxListResults) {
      NameListEntry e;
      std::strncpy(e.name, name.c_str(), kMaxNameLen - 1);
      a.results.push_back(e);
    }
  }
  a.reply.count = static_cast<uint32_t>(a.results.size());
  return base::Status::kOk;
}

base::Status NameServer::HandleSearch(const NameRequest& r, Answer& a) {
  for (const auto& [name, node] : entries_) {
    kernel_.cpu().Execute(AttrRegion());
    kernel_.cpu().AccessData(node.sim_addr, 64, /*write=*/false);
    for (const Attribute& attr : node.attrs) {
      if (std::strncmp(attr.key, r.attr.key, kMaxAttrKey) == 0 &&
          std::strncmp(attr.value, r.attr.value, kMaxAttrValue) == 0) {
        if (a.results.size() < kMaxListResults) {
          NameListEntry e;
          std::strncpy(e.name, name.c_str(), kMaxNameLen - 1);
          a.results.push_back(e);
        }
        break;
      }
    }
  }
  a.reply.count = static_cast<uint32_t>(a.results.size());
  return base::Status::kOk;
}

base::Status NameServer::HandleSetAttr(mk::Env& env, const NameRequest& r) {
  const std::string name = Canonical(r.name);
  ChargeNameWalk(name);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return base::Status::kNotFound;
  }
  kernel_.cpu().AccessData(it->second.sim_addr, 64, /*write=*/true);
  auto attr = std::find_if(it->second.attrs.begin(), it->second.attrs.end(), [&](const auto& a) {
    return std::strncmp(a.key, r.attr.key, kMaxAttrKey) == 0;
  });
  if (attr != it->second.attrs.end()) {
    std::memcpy(attr->value, r.attr.value, kMaxAttrValue);
  } else if (it->second.attrs.size() >= kMaxAttrsPerEntry) {
    return base::Status::kNoSpace;
  } else {
    it->second.attrs.push_back(r.attr);
  }
  NotifyWatchers(env, 3, name);
  return base::Status::kOk;
}

base::Status NameServer::HandleGetAttr(const NameRequest& r, Answer& a) {
  const std::string name = Canonical(r.name);
  ChargeNameWalk(name);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    for (const Attribute& attr : it->second.attrs) {
      kernel_.cpu().Execute(AttrRegion());
      if (std::strncmp(attr.key, r.attr.key, kMaxAttrKey) == 0) {
        a.reply.attr = attr;
        return base::Status::kOk;
      }
    }
  }
  return base::Status::kNotFound;
}

base::Status NameServer::HandleWatch(const mk::RpcRequest& req, const NameRequest& r) {
  if (req.rights.empty()) {
    return base::Status::kInvalidArgument;
  }
  auto port = kernel_.ResolvePort(*task_, req.rights.front());
  if (!port.ok()) {
    return port.status();
  }
  watchers_.push_back({Canonical(r.name), *port});
  return base::Status::kOk;
}

void NameServer::NotifyWatchers(mk::Env& env, uint32_t kind, const std::string& name) {
  for (const Watcher& w : watchers_) {
    const std::string prefix = w.prefix == "/" ? "/" : w.prefix + "/";
    if (name != w.prefix && name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    kernel_.cpu().Execute(NotifyRegion());
    if (w.port->dead() || w.port->queue.size() >= w.port->queue_limit) {
      continue;
    }
    const base::Result<hw::PhysAddr> buffer = kernel_.heap().TryAllocate(sizeof(NameEvent));
    if (!buffer.ok()) {
      continue;
    }
    NameEvent event;
    event.kind = kind;
    std::strncpy(event.name, name.c_str(), kMaxNameLen - 1);
    auto qm = std::make_unique<mk::QueuedMessage>();
    qm->msg_id = 0x3000;
    qm->kernel_buffer = *buffer;
    qm->inline_data.resize(sizeof(NameEvent));
    std::memcpy(qm->inline_data.data(), &event, sizeof(NameEvent));
    w.port->queue.push_back(std::move(qm));
    if (mk::Thread* receiver = w.port->blocked_receivers.DequeueFront()) {
      receiver->waiting_on = nullptr;
      kernel_.scheduler().Wake(receiver, base::Status::kOk);
    }
  }
}

// --- Client library ---------------------------------------------------------------

base::Status NameClient::Register(mk::Env& env, const std::string& name, mk::PortName right,
                                  const std::vector<Attribute>& attrs) {
  NameRequest r;
  r.op = NameOp::kRegister;
  r.SetName(name.c_str());
  r.attr_count = static_cast<uint32_t>(attrs.size());
  NameReply reply;
  mk::RightDescriptor rd{.name = right, .disposition = mk::RightType::kSend};
  mk::RpcRef ref;
  if (!attrs.empty()) {
    ref.send_data = attrs.data();
    ref.send_len = static_cast<uint32_t>(attrs.size() * sizeof(Attribute));
  }
  const base::Status st = stub_.Call(env, r, &reply, attrs.empty() ? nullptr : &ref, &rd, 1);
  if (st != base::Status::kOk) {
    return st;
  }
  return static_cast<base::Status>(reply.status);
}

base::Result<mk::PortName> NameClient::Resolve(mk::Env& env, const std::string& name) {
  NameRequest r;
  r.op = NameOp::kResolve;
  r.SetName(name.c_str());
  NameReply reply;
  mk::PortName granted = mk::kNullPort;
  const base::Status st = stub_.Call(env, r, &reply, nullptr, nullptr, 0, &granted);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return granted;
}

base::Status NameClient::Unregister(mk::Env& env, const std::string& name) {
  NameRequest r;
  r.op = NameOp::kUnregister;
  r.SetName(name.c_str());
  NameReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::vector<std::string>> NameClient::List(mk::Env& env, const std::string& dir) {
  NameRequest r;
  r.op = NameOp::kList;
  r.SetName(dir.c_str());
  NameReply reply;
  std::vector<NameListEntry> results(kMaxListResults);
  mk::RpcRef ref;
  ref.recv_buf = results.data();
  ref.recv_cap = static_cast<uint32_t>(results.size() * sizeof(NameListEntry));
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  std::vector<std::string> names;
  for (uint32_t i = 0; i < reply.count; ++i) {
    names.emplace_back(results[i].name);
  }
  return names;
}

base::Result<std::vector<std::string>> NameClient::Search(mk::Env& env, const std::string& key,
                                                          const std::string& value) {
  NameRequest r;
  r.op = NameOp::kSearch;
  std::strncpy(r.attr.key, key.c_str(), kMaxAttrKey - 1);
  std::strncpy(r.attr.value, value.c_str(), kMaxAttrValue - 1);
  NameReply reply;
  std::vector<NameListEntry> results(kMaxListResults);
  mk::RpcRef ref;
  ref.recv_buf = results.data();
  ref.recv_cap = static_cast<uint32_t>(results.size() * sizeof(NameListEntry));
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  std::vector<std::string> names;
  for (uint32_t i = 0; i < reply.count; ++i) {
    names.emplace_back(results[i].name);
  }
  return names;
}

base::Status NameClient::SetAttr(mk::Env& env, const std::string& name, const std::string& key,
                                 const std::string& value) {
  NameRequest r;
  r.op = NameOp::kSetAttr;
  r.SetName(name.c_str());
  std::strncpy(r.attr.key, key.c_str(), kMaxAttrKey - 1);
  std::strncpy(r.attr.value, value.c_str(), kMaxAttrValue - 1);
  NameReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::string> NameClient::GetAttr(mk::Env& env, const std::string& name,
                                              const std::string& key) {
  NameRequest r;
  r.op = NameOp::kGetAttr;
  r.SetName(name.c_str());
  std::strncpy(r.attr.key, key.c_str(), kMaxAttrKey - 1);
  NameReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return std::string(reply.attr.value);
}

base::Status NameClient::Watch(mk::Env& env, const std::string& prefix,
                               mk::PortName notify_port) {
  NameRequest r;
  r.op = NameOp::kWatch;
  r.SetName(prefix.c_str());
  NameReply reply;
  mk::RightDescriptor rd{.name = notify_port, .disposition = mk::RightType::kSend};
  const base::Status st = stub_.Call(env, r, &reply, nullptr, &rd, 1);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

}  // namespace mks
