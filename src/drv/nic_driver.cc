#include "src/drv/nic_driver.h"

#include <cstring>

#include "src/base/log.h"

namespace drv {

namespace {
const hw::CodeRegion& TxRegion() {
  static const hw::CodeRegion r = hw::DefineCode("drv.nic.tx_path", 220);
  return r;
}
const hw::CodeRegion& RxRegion() {
  static const hw::CodeRegion r = hw::DefineCode("drv.nic.rx_path", 240);
  return r;
}
}  // namespace

NicDriver::NicDriver(mk::Kernel& kernel, mk::Task* task, hw::Nic* nic, ResourceManager* rm)
    : kernel_(kernel), task_(task), nic_(nic) {
  if (rm != nullptr) {
    const DriverId id = rm->RegisterDriver("nic-driver");
    (void)rm->DeclareResource({ResourceKind::kIoWindow, nic_->reg_base()}, "nic registers");
    (void)rm->DeclareResource({ResourceKind::kIrqLine, static_cast<uint64_t>(nic_->irq_line())},
                              "nic irq");
    WPOS_CHECK(rm->Request(id, {ResourceKind::kIoWindow, nic_->reg_base()}) == base::Status::kOk);
    WPOS_CHECK(rm->Request(id, {ResourceKind::kIrqLine,
                                static_cast<uint64_t>(nic_->irq_line())}) == base::Status::kOk);
  }
  auto service = kernel_.PortAllocate(*task_);
  WPOS_CHECK(service.ok());
  service_port_ = *service;
  auto irq = kernel_.PortAllocate(*task_);
  WPOS_CHECK(irq.ok());
  irq_port_ = *irq;
  WPOS_CHECK(kernel_.ReflectInterrupt(*task_, static_cast<uint32_t>(nic_->irq_line()),
                                      irq_port_) == base::Status::kOk);
  auto tx = kernel_.machine().mem().AllocContiguous(1);
  auto rx = kernel_.machine().mem().AllocContiguous(1);
  WPOS_CHECK(tx.ok() && rx.ok());
  tx_buffer_ = *tx;
  rx_buffer_ = *rx;
  // Post the receive buffer.
  kernel_.IoWrite(nic_, hw::Nic::kRegRxAddr, static_cast<uint32_t>(rx_buffer_));
  kernel_.IoWrite(nic_, hw::Nic::kRegRxCap, hw::kPageSize);
  loop_ = std::make_unique<mk::ServerLoop>(service_port_, "nic", hw::Nic::kMaxFrame);
  kernel_.CreateThread(task_, "nic-isr", [this](mk::Env& env) { IsrLoop(env); },
                       mk::Thread::kDefaultPriority + 5);
  kernel_.CreateThread(task_, "nic-driver", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 4);
}

mk::PortName NicDriver::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, service_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void NicDriver::IsrLoop(mk::Env& env) {
  while (true) {
    mk::MachMessage msg;
    if (kernel_.MachMsgReceive(irq_port_, &msg) != base::Status::kOk) {
      return;
    }
    while ((kernel_.IoRead(nic_, hw::Nic::kRegStatus) & hw::Nic::kStatusRxReady) != 0) {
      kernel_.cpu().Execute(RxRegion());
      const uint32_t len = kernel_.IoRead(nic_, hw::Nic::kRegRxLen);
      std::vector<uint8_t> frame(len);
      kernel_.machine().mem().Read(rx_buffer_, frame.data(), len);
      kernel_.ChargeCopy(rx_buffer_, kernel_.current()->msg_window(), len);
      rx_queue_.push_back(std::move(frame));
      ++frames_rx_;
      kernel_.IoWrite(nic_, hw::Nic::kRegCommand, hw::Nic::kCmdRxAck);
      // Complete a queued receive directly from the interrupt thread
      // (deferred RPC reply). A receiver that gave up leaves the frame to
      // the next one.
      while (!pending_recvs_.empty() && !rx_queue_.empty()) {
        const uint64_t token = pending_recvs_.front();
        pending_recvs_.pop_front();
        std::vector<uint8_t> frame = std::move(rx_queue_.front());
        rx_queue_.pop_front();
        const NicReply reply{0, static_cast<uint32_t>(frame.size())};
        if (kernel_.RpcReply(token, &reply, sizeof(reply), frame.data(), reply.len) !=
            base::Status::kOk) {
          rx_queue_.push_front(std::move(frame));
        }
      }
    }
  }
}

void NicDriver::Serve(mk::Env& env) {
  loop_->Run<NicRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc, const NicRequest& req,
                                  const uint8_t* frame, uint32_t frame_len) {
    base::Status st = base::Status::kOk;
    std::vector<uint8_t> out;  // a received frame
    if (req.op == NicOp::kSend) {
      if (frame_len == 0 || frame_len > hw::Nic::kMaxFrame) {
        st = base::Status::kInvalidArgument;
      } else {
        kernel_.cpu().Execute(TxRegion());
        kernel_.machine().mem().Write(tx_buffer_, frame, frame_len);
        kernel_.ChargeCopy(kernel_.current()->msg_window(), tx_buffer_, frame_len);
        kernel_.IoWrite(nic_, hw::Nic::kRegTxAddr, static_cast<uint32_t>(tx_buffer_));
        kernel_.IoWrite(nic_, hw::Nic::kRegTxLen, frame_len);
        kernel_.IoWrite(nic_, hw::Nic::kRegCommand, hw::Nic::kCmdSend);
        ++frames_tx_;
      }
    } else if (req.op == NicOp::kRecv) {
      if (rx_queue_.empty()) {
        // No frame yet: defer; the ISR thread replies when one arrives, and
        // the serve loop stays available for sends.
        pending_recvs_.push_back(rpc.token);
        return;
      }
      out = std::move(rx_queue_.front());
      rx_queue_.pop_front();
    } else {
      st = base::Status::kNotSupported;
    }
    const NicReply reply{static_cast<int32_t>(st), static_cast<uint32_t>(out.size())};
    loop_->Reply(rpc, &reply, sizeof(reply), out.data(), reply.len);
  });
}

base::Status NicClient::Send(mk::Env& env, const void* frame, uint32_t len) {
  NicRequest req{NicOp::kSend, len};
  NicReply reply;
  mk::RpcRef ref;
  ref.send_data = frame;
  ref.send_len = len;
  const base::Status st = stub_.Call(env, req, &reply, &ref);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<uint32_t> NicClient::Receive(mk::Env& env, void* buffer, uint32_t cap) {
  NicRequest req{NicOp::kRecv, 0};
  NicReply reply;
  mk::RpcRef ref;
  ref.recv_buf = buffer;
  ref.recv_cap = cap;
  const base::Status st = stub_.Call(env, req, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.len;
}

}  // namespace drv
