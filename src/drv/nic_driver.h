// User-level network interface driver: a receive thread takes reflected
// interrupts and drains frames into a queue; a service thread serves
// send/receive RPCs from its clients (bench_ablations' frame echo).
#ifndef SRC_DRV_NIC_DRIVER_H_
#define SRC_DRV_NIC_DRIVER_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/drv/resource_manager.h"
#include "src/hw/nic.h"
#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"

namespace drv {

enum class NicOp : uint32_t { kSend = 1, kRecv = 2 };

struct NicRequest {
  NicOp op = NicOp::kSend;
  uint32_t len = 0;
};

struct NicReply {
  int32_t status = 0;
  uint32_t len = 0;
};

class NicDriver {
 public:
  NicDriver(mk::Kernel& kernel, mk::Task* task, hw::Nic* nic, ResourceManager* rm);

  mk::PortName service_port() const { return service_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once. The
  // interrupt thread runs on until the driver task dies.
  void Stop() { loop_->Stop(); }

  uint64_t frames_tx() const { return frames_tx_; }
  uint64_t frames_rx() const { return frames_rx_; }

 private:
  void IsrLoop(mk::Env& env);
  void Serve(mk::Env& env);

  mk::Kernel& kernel_;
  mk::Task* task_;
  hw::Nic* nic_;
  mk::PortName service_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  mk::PortName irq_port_ = mk::kNullPort;
  hw::PhysAddr tx_buffer_ = 0;
  hw::PhysAddr rx_buffer_ = 0;
  std::deque<std::vector<uint8_t>> rx_queue_;
  std::deque<uint64_t> pending_recvs_;  // tokens of queued kRecv requests
  uint64_t frames_tx_ = 0;
  uint64_t frames_rx_ = 0;
};

// Client-side frame interface to the driver.
class NicClient {
 public:
  explicit NicClient(mk::PortName service) : stub_("drv.nic.client", service) {}

  base::Status Send(mk::Env& env, const void* frame, uint32_t len);
  // Blocks until a frame arrives; returns its length.
  base::Result<uint32_t> Receive(mk::Env& env, void* buffer, uint32_t cap);

 private:
  mk::ClientStub stub_;
};

}  // namespace drv

#endif  // SRC_DRV_NIC_DRIVER_H_
