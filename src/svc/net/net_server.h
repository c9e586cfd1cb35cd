// The networking shared service: datagram sockets over the NIC driver,
// parameterized on the protocol-stack engine (fine-grained Taligent style or
// coarse) and optionally routed through the stateful C++ kernel wrappers —
// exactly the configuration space the paper's fine-grained-objects
// evaluation needs.
#ifndef SRC_SVC_NET_NET_SERVER_H_
#define SRC_SVC_NET_NET_SERVER_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/drv/nic_driver.h"
#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"
#include "src/svc/net/stack.h"

namespace svc {

enum class NetOp : uint32_t {
  kBind = 1,
  kSendTo = 2,
  kRecvFrom = 3,
  kSendToV = 4,  // batched send: several datagrams in one ref payload
};

// Batched-send bound: a kSendToV ref payload carries up to this many
// NetDgram headers plus their concatenated payloads. One RPC (and, above
// the kernel's OOL threshold, one page-reference transfer) amortizes the
// trap cost over the whole batch — a single frame is smaller than the OOL
// threshold, so only batching lets the net path go zero-copy.
inline constexpr uint32_t kNetMaxBatch = 32;

// Per-datagram header inside a kSendToV ref payload. Headers for the whole
// batch come first, payload bytes for all datagrams follow back to back.
struct NetDgram {
  uint32_t addr = 0;      // destination address
  uint16_t port = 0;      // destination port
  uint16_t src_port = 0;
  uint32_t len = 0;       // payload bytes for this datagram
  uint32_t pad = 0;
};

struct NetRequest {
  NetOp op = NetOp::kBind;
  uint32_t addr = 0;   // kSendTo destination address
  uint16_t port = 0;   // bind port / destination port
  uint16_t src_port = 0;
  uint32_t len = 0;    // kSendTo payload bytes; kSendToV datagram count
};

struct NetReply {
  int32_t status = 0;
  uint32_t len = 0;
  uint32_t from_addr = 0;
  uint16_t from_port = 0;
  uint16_t pad = 0;
};

class NetServer {
 public:
  // `use_wrappers` routes driver calls through the stateful TPortSender
  // wrapper, as the Taligent frameworks did.
  NetServer(mk::Kernel& kernel, mk::Task* task, mk::PortName nic_service,
            std::unique_ptr<StackEngine> engine, bool use_wrappers);

  mk::PortName service_port() const { return service_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once; the serve
  // thread then completes deferred receives with kUnavailable.
  void Stop() { loop_->Stop(); }

  // Resets every socket with clean errors: receivers blocked in a deferred
  // RecvFrom complete with kUnavailable and queued datagrams are dropped.
  // Bindings stay, so clients can retry. Used on shutdown and by restart
  // factories — after a crash the connection state is gone and clients must
  // see a definite error, not a hang.
  void ResetConnections();

  uint64_t datagrams_sent() const { return sent_; }
  uint64_t datagrams_delivered() const { return delivered_; }

 private:
  void RxPump(mk::Env& env);
  void Serve(mk::Env& env);
  base::Status DriverSend(mk::Env& env, const std::vector<uint8_t>& frame);

  mk::Kernel& kernel_;
  mk::Task* task_;
  std::unique_ptr<StackEngine> engine_;
  std::unique_ptr<drv::NicClient> nic_;
  std::unique_ptr<drv::TPortSenderWrapper> wrapper_;  // non-null if use_wrappers
  mk::PortName nic_service_;
  mk::PortName service_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;

  struct Socket {
    std::deque<Datagram> queue;
    std::deque<uint64_t> pending;  // tokens of receivers awaiting data
  };
  std::map<uint16_t, Socket> sockets_;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
};

class NetClient {
 public:
  explicit NetClient(mk::PortName service) : stub_("svc.net.client", service) {}

  base::Status Bind(mk::Env& env, uint16_t port);
  base::Status SendTo(mk::Env& env, uint32_t addr, uint16_t dst_port, uint16_t src_port,
                      const void* data, uint32_t len);
  // Sends up to kNetMaxBatch datagrams with one RPC. Returns the number of
  // datagrams the server put on the wire (short on a driver error).
  base::Result<uint32_t> SendToBatch(mk::Env& env, const NetDgram* headers,
                                     const void* const* payloads, uint32_t count);
  // Blocks until a datagram for `port` arrives.
  base::Result<uint32_t> RecvFrom(mk::Env& env, uint16_t port, void* out, uint32_t cap,
                                  uint32_t* from_addr = nullptr, uint16_t* from_port = nullptr);

 private:
  mk::ClientStub stub_;
};

}  // namespace svc

#endif  // SRC_SVC_NET_NET_SERVER_H_
