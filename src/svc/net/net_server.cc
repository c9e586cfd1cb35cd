#include "src/svc/net/net_server.h"

#include <cstring>

#include "src/base/log.h"

namespace svc {

NetServer::NetServer(mk::Kernel& kernel, mk::Task* task, mk::PortName nic_service,
                     std::unique_ptr<StackEngine> engine, bool use_wrappers)
    : kernel_(kernel), task_(task), engine_(std::move(engine)), nic_service_(nic_service) {
  nic_ = std::make_unique<drv::NicClient>(nic_service);
  if (use_wrappers) {
    wrapper_ = std::make_unique<drv::TPortSenderWrapper>(kernel, nic_service);
  }
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  service_port_ = *port;
  // Sized for a full kSendToV batch: headers up front, then every payload.
  loop_ = std::make_unique<mk::ServerLoop>(service_port_, "net",
                                           kNetMaxBatch * (sizeof(NetDgram) + hw::Nic::kMaxFrame));
  kernel_.CreateThread(task_, "net-rx-pump", [this](mk::Env& env) { RxPump(env); },
                       mk::Thread::kDefaultPriority + 3);
  kernel_.CreateThread(task_, "net-server", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 2);
}

void NetServer::ResetConnections() {
  for (auto& [port, socket] : sockets_) {
    (void)port;
    while (!socket.pending.empty()) {
      const uint64_t token = socket.pending.front();
      socket.pending.pop_front();
      NetReply reply;
      reply.status = static_cast<int32_t>(base::Status::kUnavailable);
      (void)kernel_.RpcReply(token, &reply, sizeof(reply));
    }
    socket.queue.clear();
  }
}

mk::PortName NetServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, service_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

base::Status NetServer::DriverSend(mk::Env& env, const std::vector<uint8_t>& frame) {
  if (wrapper_ != nullptr) {
    // Through the stateful kernel wrapper (Taligent style).
    drv::NicRequest req{drv::NicOp::kSend, static_cast<uint32_t>(frame.size())};
    drv::NicReply reply;
    mk::RpcRef ref;
    ref.send_data = frame.data();
    ref.send_len = static_cast<uint32_t>(frame.size());
    const base::Status st =
        wrapper_->SendRequest(env, &req, sizeof(req), &reply, sizeof(reply), &ref);
    return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
  }
  return nic_->Send(env, frame.data(), static_cast<uint32_t>(frame.size()));
}

void NetServer::RxPump(mk::Env& env) {
  std::vector<uint8_t> frame(hw::Nic::kMaxFrame);
  while (true) {
    auto len = nic_->Receive(env, frame.data(), static_cast<uint32_t>(frame.size()));
    if (!len.ok()) {
      return;
    }
    Datagram dgram;
    if (!engine_->Decapsulate(env, frame.data(), *len, &dgram)) {
      continue;
    }
    auto it = sockets_.find(dgram.dst_port);
    if (it == sockets_.end()) {
      continue;  // no listener: drop
    }
    it->second.queue.push_back(std::move(dgram));
    ++delivered_;
    // Complete queued receives directly from the pump (deferred RPC reply).
    Socket& socket = it->second;
    while (!socket.pending.empty() && !socket.queue.empty()) {
      const uint64_t token = socket.pending.front();
      socket.pending.pop_front();
      Datagram out = std::move(socket.queue.front());
      socket.queue.pop_front();
      NetReply reply;
      reply.len = static_cast<uint32_t>(out.payload.size());
      reply.from_addr = out.src_addr;
      reply.from_port = out.src_port;
      (void)kernel_.RpcReply(token, &reply, sizeof(reply), out.payload.data(), reply.len);
    }
  }
}

void NetServer::Serve(mk::Env& env) {
  static const hw::CodeRegion kLoop = hw::DefineCode("loop.net", mk::Costs::kRpcServerLoop);
  loop_->Run<NetRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc, const NetRequest& req,
                                  const uint8_t* payload, uint32_t payload_len) {
    if (!loop_->EnterHandler(env, rpc)) {
      return;
    }
    kernel_.cpu().Execute(kLoop);
    NetReply reply;
    switch (req.op) {
      case NetOp::kBind: {
        if (!sockets_.try_emplace(req.port).second) {
          reply.status = static_cast<int32_t>(base::Status::kAlreadyExists);
        }
        loop_->Reply(rpc, &reply, sizeof(reply));
        break;
      }
      case NetOp::kSendTo: {
        Datagram dgram;
        dgram.dst_addr = req.addr;
        dgram.dst_port = req.port;
        dgram.src_port = req.src_port;
        dgram.src_addr = 0x7f000001;
        dgram.payload.assign(payload, payload + payload_len);
        const std::vector<uint8_t> frame = engine_->Encapsulate(env, dgram);
        reply.status = static_cast<int32_t>(DriverSend(env, frame));
        if (reply.status == 0) {
          ++sent_;
        }
        loop_->Reply(rpc, &reply, sizeof(reply));
        break;
      }
      case NetOp::kSendToV: {
        // Ref payload layout: [NetDgram x count][payload bytes back to back].
        const uint32_t count = req.len;
        const uint32_t table_bytes = count * static_cast<uint32_t>(sizeof(NetDgram));
        if (count == 0 || count > kNetMaxBatch || payload_len < table_bytes) {
          reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
          loop_->Reply(rpc, &reply, sizeof(reply));
          break;
        }
        NetDgram headers[kNetMaxBatch];
        std::memcpy(headers, payload, table_bytes);
        uint64_t total = 0;
        bool valid = true;
        for (uint32_t i = 0; i < count; ++i) {
          if (headers[i].len > hw::Nic::kMaxFrame) {
            valid = false;
            break;
          }
          total += headers[i].len;
        }
        if (!valid || table_bytes + total != payload_len) {
          reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
          loop_->Reply(rpc, &reply, sizeof(reply));
          break;
        }
        uint32_t consumed = table_bytes;
        uint32_t dispatched = 0;
        for (uint32_t i = 0; i < count; ++i) {
          Datagram dgram;
          dgram.dst_addr = headers[i].addr;
          dgram.dst_port = headers[i].port;
          dgram.src_port = headers[i].src_port;
          dgram.src_addr = 0x7f000001;
          dgram.payload.assign(payload + consumed, payload + consumed + headers[i].len);
          consumed += headers[i].len;
          const std::vector<uint8_t> frame = engine_->Encapsulate(env, dgram);
          const base::Status st = DriverSend(env, frame);
          if (st != base::Status::kOk) {
            reply.status = static_cast<int32_t>(st);  // short batch
            break;
          }
          ++sent_;
          ++dispatched;
        }
        reply.len = dispatched;
        loop_->Reply(rpc, &reply, sizeof(reply));
        break;
      }
      case NetOp::kRecvFrom: {
        auto it = sockets_.find(req.port);
        if (it == sockets_.end()) {
          reply.status = static_cast<int32_t>(base::Status::kNotFound);
          loop_->Reply(rpc, &reply, sizeof(reply));
          break;
        }
        if (it->second.queue.empty()) {
          it->second.pending.push_back(rpc.token);  // deferred reply
          break;
        }
        Datagram dgram = std::move(it->second.queue.front());
        it->second.queue.pop_front();
        reply.len = static_cast<uint32_t>(dgram.payload.size());
        reply.from_addr = dgram.src_addr;
        reply.from_port = dgram.src_port;
        loop_->Reply(rpc, &reply, sizeof(reply), dgram.payload.data(), reply.len);
        break;
      }
      default:
        reply.status = static_cast<int32_t>(base::Status::kNotSupported);
        loop_->Reply(rpc, &reply, sizeof(reply));
    }
  });
  if (!task_->terminated()) {
    // Shut down (or lost the port to an injected kKillPort): complete
    // deferred receives with a clean error instead of leaving them parked.
    ResetConnections();
  }
}

base::Status NetClient::Bind(mk::Env& env, uint16_t port) {
  NetRequest r;
  r.op = NetOp::kBind;
  r.port = port;
  NetReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status NetClient::SendTo(mk::Env& env, uint32_t addr, uint16_t dst_port, uint16_t src_port,
                               const void* data, uint32_t len) {
  NetRequest r;
  r.op = NetOp::kSendTo;
  r.addr = addr;
  r.port = dst_port;
  r.src_port = src_port;
  r.len = len;
  NetReply reply;
  mk::RpcRef ref;
  ref.send_data = data;
  ref.send_len = len;
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<uint32_t> NetClient::SendToBatch(mk::Env& env, const NetDgram* headers,
                                              const void* const* payloads, uint32_t count) {
  if (count == 0 || count > kNetMaxBatch) {
    return base::Status::kInvalidArgument;
  }
  const uint32_t table_bytes = count * static_cast<uint32_t>(sizeof(NetDgram));
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (headers[i].len > hw::Nic::kMaxFrame) {
      return base::Status::kInvalidArgument;
    }
    total += headers[i].len;
  }
  // Gather [headers][payloads] into one bulk buffer; above the kernel's OOL
  // threshold the whole batch moves as a page reference, not a copy loop.
  std::vector<uint8_t> bulk(table_bytes + total);
  std::memcpy(bulk.data(), headers, table_bytes);
  uint32_t filled = table_bytes;
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(bulk.data() + filled, payloads[i], headers[i].len);
    filled += headers[i].len;
  }
  NetRequest r;
  r.op = NetOp::kSendToV;
  r.len = count;
  NetReply reply;
  mk::RpcRef ref;
  ref.send_data = bulk.data();
  ref.send_len = static_cast<uint32_t>(bulk.size());
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0 && reply.len == 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.len;  // short batch reports how many made it out
}

base::Result<uint32_t> NetClient::RecvFrom(mk::Env& env, uint16_t port, void* out, uint32_t cap,
                                           uint32_t* from_addr, uint16_t* from_port) {
  NetRequest r;
  r.op = NetOp::kRecvFrom;
  r.port = port;
  NetReply reply;
  mk::RpcRef ref;
  ref.recv_buf = out;
  ref.recv_cap = cap;
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  if (from_addr != nullptr) {
    *from_addr = reply.from_addr;
  }
  if (from_port != nullptr) {
    *from_port = reply.from_port;
  }
  return reply.len;
}

}  // namespace svc
