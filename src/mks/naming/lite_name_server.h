// Release-2 "lite" name service for embedded configurations: a flat
// hash-mapped namespace with register/resolve only — the alternative the
// paper says was added because the X.500-style design was too expensive.
#ifndef SRC_MKS_NAMING_LITE_NAME_SERVER_H_
#define SRC_MKS_NAMING_LITE_NAME_SERVER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"
#include "src/mks/naming/protocol.h"

namespace mks {

class LiteNameServer {
 public:
  LiteNameServer(mk::Kernel& kernel, mk::Task* task);

  mk::PortName receive_port() const { return receive_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once.
  void Stop() { loop_->Stop(); }

  uint64_t resolves() const { return resolves_; }

 private:
  void Serve(mk::Env& env);

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  std::unordered_map<std::string, mk::PortName> entries_;
  hw::PhysAddr table_sim_addr_ = 0;
  uint64_t resolves_ = 0;
};

class LiteNameClient {
 public:
  explicit LiteNameClient(mk::PortName service) : stub_("naming_lite.client", service) {}

  base::Status Register(mk::Env& env, const std::string& name, mk::PortName right);
  base::Result<mk::PortName> Resolve(mk::Env& env, const std::string& name);

 private:
  mk::ClientStub stub_;
};

}  // namespace mks

#endif  // SRC_MKS_NAMING_LITE_NAME_SERVER_H_
