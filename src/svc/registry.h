// Registry shared service: hierarchical key/value configuration store used
// by the personalities (the OS/2 .INI replacement in Figure 1's shared
// services).
#ifndef SRC_SVC_REGISTRY_H_
#define SRC_SVC_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"

namespace svc {

enum class RegOp : uint32_t { kSet = 1, kGet = 2, kDelete = 3, kList = 4 };

struct RegRequest {
  RegOp op = RegOp::kGet;
  char key[96] = {};
  char value[128] = {};

  void SetKey(const char* k) {
    std::strncpy(key, k, sizeof(key) - 1);
    key[sizeof(key) - 1] = '\0';
  }
};

struct RegReply {
  int32_t status = 0;
  uint32_t count = 0;
  char value[128] = {};
};

class RegistryServer {
 public:
  RegistryServer(mk::Kernel& kernel, mk::Task* task);

  mk::Task* task() const { return task_; }
  mk::PortName receive_port() const { return receive_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // ServerLoop shutdown semantics: the port dies immediately, queued and
  // future callers get kPortDead.
  void Stop() { loop_->Stop(); }
  size_t size() const { return entries_.size(); }

 private:
  void Serve(mk::Env& env);
  void HandleSet(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r);
  void HandleGet(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r);
  void HandleDelete(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r);
  void HandleList(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r);

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  hw::CodeRegion stub_region_;
  hw::CodeRegion loop_region_;
  std::unique_ptr<mk::ServerLoop> loop_;
  std::map<std::string, std::string> entries_;
};

class RegistryClient {
 public:
  explicit RegistryClient(mk::PortName service) : stub_("svc.registry.client", service) {}

  base::Status Set(mk::Env& env, const std::string& key, const std::string& value);
  base::Result<std::string> Get(mk::Env& env, const std::string& key);
  base::Status Delete(mk::Env& env, const std::string& key);
  // Keys directly under `prefix/`.
  base::Result<std::vector<std::string>> List(mk::Env& env, const std::string& prefix);

 private:
  mk::ClientStub stub_;
};

}  // namespace svc

#endif  // SRC_SVC_REGISTRY_H_
