// The Microkernel Services name service.
//
// The microkernel's capabilities are task-local, so clients and servers find
// each other through this user-level service: a single rooted tree of
// slash-separated names with per-entry attributes, prefix listing, attribute
// search, and notifications on namespace alteration. The cost of all that
// generality is one of the paper's observations — hence the Release-2 "lite"
// service (lite_name_server.h) for embedded configurations.
#ifndef SRC_MKS_NAMING_NAME_SERVER_H_
#define SRC_MKS_NAMING_NAME_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"
#include "src/mks/naming/protocol.h"

namespace mks {

class NameServer {
 public:
  // Creates the receive port in `task` and spawns the service thread.
  NameServer(mk::Kernel& kernel, mk::Task* task);

  mk::Task* task() const { return task_; }
  mk::PortName receive_port() const { return receive_port_; }
  // Gives `client` a send right to the service.
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once.
  void Stop();

  uint64_t resolves() const { return resolves_; }
  uint64_t registrations() const { return registrations_; }
  size_t entry_count() const { return entries_.size(); }

 private:
  struct Node {
    mk::PortName right = mk::kNullPort;  // name in the *server's* port space
    std::vector<Attribute> attrs;
    hw::PhysAddr sim_addr = 0;
  };
  struct Watcher {
    std::string prefix;
    mk::Port* port = nullptr;
  };

  // What a request answers besides its status: the reply's fields, the
  // names a kList or kSearch found, and the send right kResolve grants.
  struct Answer {
    NameReply reply;
    std::vector<NameListEntry> results;
    mk::PortName grant = mk::kNullPort;
  };

  void Serve(mk::Env& env);
  // One operation each: the status it answers, with `a` filled on success.
  base::Status HandleRegister(mk::Env& env, const mk::RpcRequest& req, const NameRequest& r,
                              const uint8_t* ref, uint32_t ref_len);
  base::Status HandleResolve(const NameRequest& r, Answer& a);
  base::Status HandleUnregister(mk::Env& env, const NameRequest& r);
  base::Status HandleList(const NameRequest& r, Answer& a);
  base::Status HandleSearch(const NameRequest& r, Answer& a);
  base::Status HandleSetAttr(mk::Env& env, const NameRequest& r);
  base::Status HandleGetAttr(const NameRequest& r, Answer& a);
  base::Status HandleWatch(const mk::RpcRequest& req, const NameRequest& r);
  // Posts a NameEvent to every watcher of `name`. A notice that the
  // watcher's queue or the kernel heap cannot hold is dropped.
  void NotifyWatchers(mk::Env& env, uint32_t kind, const std::string& name);

  // Models the X.500-style processing: canonicalize and walk the name one
  // component at a time, touching per-node state.
  void ChargeNameWalk(const std::string& name);

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  std::map<std::string, Node> entries_;
  std::vector<Watcher> watchers_;
  uint64_t resolves_ = 0;
  uint64_t registrations_ = 0;
};

// Client-side library.
class NameClient {
 public:
  // `service` is a send right to the name service in the caller's task.
  explicit NameClient(mk::PortName service) : stub_("naming.client", service) {}

  base::Status Register(mk::Env& env, const std::string& name, mk::PortName right,
                        const std::vector<Attribute>& attrs = {});
  base::Result<mk::PortName> Resolve(mk::Env& env, const std::string& name);
  base::Status Unregister(mk::Env& env, const std::string& name);
  base::Result<std::vector<std::string>> List(mk::Env& env, const std::string& dir);
  // Returns names whose attribute `key` equals `value`.
  base::Result<std::vector<std::string>> Search(mk::Env& env, const std::string& key,
                                                const std::string& value);
  base::Status SetAttr(mk::Env& env, const std::string& name, const std::string& key,
                       const std::string& value);
  base::Result<std::string> GetAttr(mk::Env& env, const std::string& name,
                                    const std::string& key);
  // Notifications about changes under `prefix` arrive as NameEvent legacy
  // messages on `notify_port` (a receive right of the caller).
  base::Status Watch(mk::Env& env, const std::string& prefix, mk::PortName notify_port);

 private:
  mk::ClientStub stub_;
};

}  // namespace mks

#endif  // SRC_MKS_NAMING_NAME_SERVER_H_
