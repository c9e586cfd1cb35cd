#include "src/svc/registry.h"

#include <cstring>

#include "src/base/log.h"

namespace svc {

namespace {
const hw::CodeRegion& RegRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.registry.op", 130);
  return r;
}
}  // namespace

RegistryServer::RegistryServer(mk::Kernel& kernel, mk::Task* task)
    : kernel_(kernel), task_(task) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  // The registry's stub and loop images, defined (and so laid out) here.
  stub_region_ = hw::DefineKernelCode("stub.svc.registry", mk::Costs::kRpcServerStub);
  loop_region_ = hw::DefineKernelCode("loop.svc.registry", mk::Costs::kRpcServerLoop);
  loop_ = std::make_unique<mk::ServerLoop>(receive_port_, "svc.registry");
  kernel_.CreateThread(task_, "registry", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 1);
}

void RegistryServer::Serve(mk::Env& env) {
  loop_->Run<RegRequest>(env, [this](mk::Env& env, const mk::RpcRequest& rpc,
                                     const RegRequest& req, const uint8_t* /*ref_data*/,
                                     uint32_t /*ref_len*/) {
    kernel_.cpu().Execute(loop_region_);
    kernel_.cpu().Execute(stub_region_);
    if (!loop_->EnterHandler(env, rpc)) {
      return;
    }
    RegRequest r = req;
    r.key[sizeof(r.key) - 1] = '\0';
    r.value[sizeof(r.value) - 1] = '\0';
    if (r.op < RegOp::kSet || r.op > RegOp::kList) {
      loop_->Reply(rpc, nullptr, 0, nullptr, 0, mk::kNullPort, base::Status::kNotSupported);
      return;
    }
    kernel_.cpu().Execute(RegRegion());
    switch (r.op) {
      case RegOp::kSet:
        HandleSet(env, rpc, r);
        break;
      case RegOp::kGet:
        HandleGet(env, rpc, r);
        break;
      case RegOp::kDelete:
        HandleDelete(env, rpc, r);
        break;
      case RegOp::kList:
        HandleList(env, rpc, r);
        break;
    }
  });
}

mk::PortName RegistryServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void RegistryServer::HandleSet(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  entries_[r.key] = r.value;
  RegReply reply;
  reply.status = static_cast<int32_t>(base::Status::kOk);
  loop_->Reply(rpc, &reply, sizeof(reply));
}

void RegistryServer::HandleGet(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  RegReply reply;
  auto it = entries_.find(r.key);
  if (it == entries_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kNotFound);
  } else {
    reply.status = static_cast<int32_t>(base::Status::kOk);
    std::strncpy(reply.value, it->second.c_str(), sizeof(reply.value) - 1);
  }
  loop_->Reply(rpc, &reply, sizeof(reply));
}

void RegistryServer::HandleDelete(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  RegReply reply;
  reply.status = static_cast<int32_t>(entries_.erase(r.key) == 0 ? base::Status::kNotFound
                                                                 : base::Status::kOk);
  loop_->Reply(rpc, &reply, sizeof(reply));
}

void RegistryServer::HandleList(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  std::string bulk;
  const std::string prefix = std::string(r.key) + "/";
  uint32_t count = 0;
  for (const auto& [key, value] : entries_) {
    if (key.compare(0, prefix.size(), prefix) == 0 &&
        key.find('/', prefix.size()) == std::string::npos) {
      bulk += key;
      bulk.push_back('\0');
      ++count;
    }
  }
  RegReply reply;
  reply.status = static_cast<int32_t>(base::Status::kOk);
  reply.count = count;
  loop_->Reply(rpc, &reply, sizeof(reply), bulk.data(), static_cast<uint32_t>(bulk.size()));
}

base::Status RegistryClient::Set(mk::Env& env, const std::string& key, const std::string& value) {
  RegRequest r;
  r.op = RegOp::kSet;
  r.SetKey(key.c_str());
  std::strncpy(r.value, value.c_str(), sizeof(r.value) - 1);
  RegReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::string> RegistryClient::Get(mk::Env& env, const std::string& key) {
  RegRequest r;
  r.op = RegOp::kGet;
  r.SetKey(key.c_str());
  RegReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return std::string(reply.value);
}

base::Status RegistryClient::Delete(mk::Env& env, const std::string& key) {
  RegRequest r;
  r.op = RegOp::kDelete;
  r.SetKey(key.c_str());
  RegReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::vector<std::string>> RegistryClient::List(mk::Env& env,
                                                            const std::string& prefix) {
  RegRequest r;
  r.op = RegOp::kList;
  r.SetKey(prefix.c_str());
  RegReply reply;
  std::vector<char> bulk(8192);
  mk::RpcRef ref;
  ref.recv_buf = bulk.data();
  ref.recv_cap = static_cast<uint32_t>(bulk.size());
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  std::vector<std::string> out;
  const char* p = bulk.data();
  for (uint32_t i = 0; i < reply.count; ++i) {
    out.emplace_back(p);
    p += out.back().size() + 1;
  }
  return out;
}

}  // namespace svc
