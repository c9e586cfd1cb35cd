#include "src/mks/naming/lite_name_server.h"

#include <cstring>

#include "src/base/log.h"

namespace mks {

namespace {
const hw::CodeRegion& LookupRegion() {
  // One flat hash probe; contrast with the full service's per-component walk.
  static const hw::CodeRegion r = hw::DefineCode("mks.name_lite.lookup", 70);
  return r;
}
}  // namespace

LiteNameServer::LiteNameServer(mk::Kernel& kernel, mk::Task* task)
    : kernel_(kernel), task_(task) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  table_sim_addr_ = kernel_.heap().Allocate(4096);
  // Register/resolve carry no by-reference data.
  loop_ = std::make_unique<mk::ServerLoop>(receive_port_, "naming_lite", /*max_ref=*/0);
  kernel_.CreateThread(task_, "lite-name-server", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 2);
}

mk::PortName LiteNameServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void LiteNameServer::Serve(mk::Env& env) {
  static const hw::CodeRegion kLoop =
      hw::DefineCode("loop.naming_lite", mk::Costs::kRpcServerLoop);
  loop_->Run<LiteNameRequest>(env, [&](mk::Env& env, const mk::RpcRequest& req,
                                       const LiteNameRequest& r, const uint8_t* /*ref_data*/,
                                       uint32_t /*ref_len*/) {
    kernel_.cpu().Execute(kLoop);
    mk::PortName grant = mk::kNullPort;
    base::Status st = base::Status::kInvalidArgument;
    // The one validation point for untrusted requests: name is a C string.
    if (std::memchr(r.name, '\0', kMaxNameLen) != nullptr) {
      kernel_.cpu().Execute(LookupRegion());
      const uint64_t bucket = std::hash<std::string_view>{}(r.name) % 64;
      kernel_.cpu().AccessData(table_sim_addr_ + bucket * 64, 32, /*write=*/false);
      if (r.op == LiteNameOp::kRegister) {
        if (!req.rights.empty()) {  // a register without a right stays invalid
          st = entries_.emplace(r.name, req.rights.front()).second ? base::Status::kOk
                                                                    : base::Status::kAlreadyExists;
        }
      } else if (r.op == LiteNameOp::kResolve) {
        ++resolves_;
        auto it = entries_.find(r.name);
        st = it != entries_.end() ? base::Status::kOk : base::Status::kNotFound;
        grant = it != entries_.end() ? it->second : mk::kNullPort;
      } else {
        st = base::Status::kNotSupported;
      }
    }
    const LiteNameReply reply{static_cast<int32_t>(st)};
    loop_->Reply(req, &reply, sizeof(reply), nullptr, 0, grant);
  });
}

base::Status LiteNameClient::Register(mk::Env& env, const std::string& name, mk::PortName right) {
  LiteNameRequest r;
  r.op = LiteNameOp::kRegister;
  r.SetName(name.c_str());
  LiteNameReply reply;
  mk::RightDescriptor rd{.name = right, .disposition = mk::RightType::kSend};
  const base::Status st = stub_.Call(env, r, &reply, nullptr, &rd, 1);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<mk::PortName> LiteNameClient::Resolve(mk::Env& env, const std::string& name) {
  LiteNameRequest r;
  r.op = LiteNameOp::kResolve;
  r.SetName(name.c_str());
  LiteNameReply reply;
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

}  // namespace mks
