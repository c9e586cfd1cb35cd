// The server runtime: the one RPC receive loop every server in the system
// runs on. A server supplies its request type and a single dispatch function
// and keeps its own `switch` on the op code inside it:
//
//   loop_->Run<FsRequest>(env, [&](Env& env, const RpcRequest& rpc,
//                                  const FsRequest& req, const uint8_t* ref_data,
//                                  uint32_t ref_len) { ... });
//
// For every request the loop
//   - receives into a fresh, zero-filled Req: sizeof(Req) bounds the inline
//     request, and the bytes past a short request read as zero;
//   - keeps serving after kTooLarge: the kernel already failed the oversized
//     queued request back to its caller, and the loop itself is healthy;
//   - sends watchdog heartbeats once EnableHeartbeat armed them;
//   - opens a kServerOp span labelled with the loop's name and counts
//     `server.<name>.ops`;
//   - calls the dispatch function, which answers its request with Reply() or
//     keeps the token to answer later with Kernel::RpcReply;
//   - sends a reply recorded by Reply() together with the next receive, in
//     one RpcReplyAndReceive trap (the paper's reply-and-wait), so the
//     server is parked again before the replied client runs.
//
// The loop charges no simulated cycles of its own. Each server's dispatch
// charges the code regions its server defines (its loop and stub regions
// among them), so moving a server onto the runtime changes neither its cost
// profile nor where hw::CodeLayout places its code.
#ifndef SRC_MK_SERVER_LOOP_H_
#define SRC_MK_SERVER_LOOP_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/mk/kernel.h"

namespace mk {

class ServerLoop {
 public:
  // `name` labels the loop's spans and metrics. `max_ref` bounds the
  // by-reference payload a request may carry; a larger one (or any payload
  // when `max_ref` is 0) fails its caller with kTooLarge.
  ServerLoop(PortName receive_port, const std::string& name, uint32_t max_ref = 64 * 1024)
      : port_(receive_port), name_(name), ops_counter_("server." + name + ".ops"),
        ref_buf_(max_ref) {}

  // Arms watchdog heartbeats: the loop sends a HeartbeatPing to
  // `health_right` (a send right in the serving task's space, minted by
  // RestartManager::HealthRightFor) after every `every_requests` requests
  // and whenever `every_ns` of simulated time passed since the last beat.
  // Pings are sent with a zero timeout so a full or dead health port can
  // never block the server; a wedged thread stops beating — which is the
  // signal. Call before Run().
  void EnableHeartbeat(PortName health_right, uint64_t every_requests, uint64_t every_ns) {
    health_right_ = health_right;
    heartbeat_every_requests_ = every_requests == 0 ? 1 : every_requests;
    heartbeat_every_ns_ = every_ns;
  }

  // Shuts the loop down deterministically: the receive port is destroyed
  // immediately, so a server parked between receives wakes with kPortDead
  // and exits, and every caller — queued or future — observes kPortDead
  // rather than a request that may or may not still be served. A request
  // already in dispatch still completes: a reply it records is delivered by
  // the loop's last trap, whose receive half then fails on the dead port.
  // Callable from any thread (including a handler) once Run() has started;
  // calling it before Run() makes Run() destroy the port and return at once.
  void Stop() {
    stop_requested_ = true;
    running_ = false;
    if (env_ != nullptr) {
      DestroyReceivePort(*env_);
    }
  }
  bool running() const { return running_; }
  PortName port() const { return port_; }

  // Serves requests until Stop() or the port dies. `dispatch(env, rpc, req,
  // ref_data, ref_len)` gets the typed request (a POD struct whose `op`
  // field is a 32-bit op code) and the by-reference payload the client
  // attached.
  template <typename Req, typename Dispatch>
  void Run(Env& env, Dispatch&& dispatch) {
    static_assert(std::is_trivially_copyable_v<Req> && sizeof(Req{}.op) == sizeof(uint32_t),
                  "requests are POD structs with a 32-bit op code");
    env_ = &env;
    if (stop_requested_) {
      DestroyReceivePort(env);
      env_ = nullptr;
      return;
    }
    running_ = true;
    if (health_right_ != kNullPort) {
      SendHeartbeat(env);  // first beat arms the watchdog deadline
    }
    // A recorded reply is always sent, even once the loop stopped: the
    // combined trap delivers it and then fails its receive half.
    while (running_ || reply_.token != 0) {
      Req req;
      std::memset(static_cast<void*>(&req), 0, sizeof(req));
      RpcRef ref;
      ref.recv_buf = ref_buf_.data();
      ref.recv_cap = static_cast<uint32_t>(ref_buf_.size());
      // With heartbeats armed the park is bounded so an idle server still
      // wakes to beat; without them this is the plain blocking receive.
      const uint64_t receive_timeout =
          health_right_ != kNullPort && heartbeat_every_ns_ != 0 ? heartbeat_every_ns_ : kForever;
      auto request = ReplyAndReceive(env, &req, sizeof(req), &ref, receive_timeout);
      if (!request.ok()) {
        if (request.status() == base::Status::kTooLarge) {
          // An oversized queued request was already failed back to its
          // client; the loop itself is healthy — keep serving. Breaking here
          // would leave the port alive with nobody receiving on it.
          continue;
        }
        if (request.status() == base::Status::kTimedOut) {
          // Idle heartbeat tick: nothing arrived within the beat interval.
          SendHeartbeat(env);
          continue;
        }
        // The port is dead (Stop, task teardown) or the task is: there is
        // nothing left to destroy.
        port_destroyed_ = true;
        break;
      }
      if (health_right_ != kNullPort) {
        // Beat on arrival (before dispatch) so a request that wedges the
        // handler starts the watchdog clock at its own dispatch.
        ++requests_since_beat_;
        if (requests_since_beat_ >= heartbeat_every_requests_ ||
            (heartbeat_every_ns_ != 0 && env.NowNs() - last_beat_ns_ >= heartbeat_every_ns_)) {
          SendHeartbeat(env);
        }
      }
      const auto op = static_cast<uint64_t>(req.op);
      trace::Tracer& tracer = env.kernel().tracer();
      // The span closes when dispatch returns, before the reply it recorded
      // goes out with the next receive.
      trace::ScopedSpan op_span(tracer, trace::SpanKind::kServerOp,
                                trace::EventType::kServerDispatch, trace::EventType::kServerDone,
                                op);
      op_span.set_end_payload(op);
      tracer.LabelSpan(op_span.id(), name_);
      ++tracer.metrics().Counter(ops_counter_);
      dispatching_ = request->token;
      dispatch(env, *request, req, ref_buf_.data(), ref.recv_len);
      dispatching_ = 0;
    }
    running_ = false;
    env_ = nullptr;
  }

  // Answers the request being dispatched. The reply leaves when dispatch
  // returns, in the same trap that parks the server for its next request,
  // so the bytes are copied into buffers the loop owns: a host copy with no
  // simulated cost (the kernel charges the reply copy either way), needed
  // because the handler's buffers die with its frame. One reply per
  // request; a reply sent later, by a stored token, goes through
  // Kernel::RpcReply instead.
  void Reply(const RpcRequest& rpc, const void* reply, uint32_t len,
             const void* ref_data = nullptr, uint32_t ref_len = 0, PortName grant = kNullPort,
             base::Status completion = base::Status::kOk) {
    WPOS_CHECK(rpc.token != 0 && rpc.token == dispatching_ && reply_.token == 0)
        << "ServerLoop::Reply answers the request in dispatch, once";
    const auto* bytes = static_cast<const uint8_t*>(reply);
    const auto* ref_bytes = static_cast<const uint8_t*>(ref_data);
    reply_.token = rpc.token;
    reply_.inline_bytes.assign(bytes, bytes + (bytes != nullptr ? len : 0));
    reply_.ref_bytes.assign(ref_bytes, ref_bytes + (ref_bytes != nullptr ? ref_len : 0));
    reply_.grant = grant;
    reply_.completion = completion;
  }

  // The kServerHandlerEntry fault point. A server that hosts it calls this
  // first in dispatch, before any handler state changes, and serves the
  // request only when it returns true — so an injected failure is
  // indistinguishable from the server failing at the top of the operation.
  // False means the fault consumed the request and dispatch must return
  // without replying: it was swallowed (kDropReply; the client needs a
  // deadline), failed with kBusy (kTransientError), or the server went down
  // with it (kCrashTask, kKillPort, kStallTask), which also ends Run().
  // kDelayReply sleeps a seeded delay and returns true. Campaigns arm the
  // point globally, so only servers whose loss a campaign survives call it.
  bool EnterHandler(Env& env, const RpcRequest& request) {
    switch (env.kernel().faults().Fire(fault::FaultPoint::kServerHandlerEntry)) {
      case fault::FaultMode::kNone:
      case fault::FaultMode::kCount:
        return true;
      case fault::FaultMode::kCrashTask:
        // The task teardown destroys the receive port and fails this
        // request's client (and every queued one) with kPortDead.
        port_destroyed_ = true;
        running_ = false;
        env_ = nullptr;
        env.kernel().TerminateTask(&env.task());
        return false;
      case fault::FaultMode::kDropReply:
        return false;
      case fault::FaultMode::kKillPort:
        DestroyReceivePort(env);
        running_ = false;
        env_ = nullptr;
        return false;
      case fault::FaultMode::kTransientError:
        Reply(request, nullptr, 0, nullptr, 0, kNullPort, base::Status::kBusy);
        return false;
      case fault::FaultMode::kStallTask:
        // Wedged, not dead: the thread parks forever mid-request and stops
        // heartbeating. Only a watchdog TerminateTask recovers it — the
        // teardown fails this client and every queued one with kPortDead.
        running_ = false;
        env_ = nullptr;
        (void)env.kernel().StallForever();
        // Only reached once the stall is aborted by task teardown.
        port_destroyed_ = true;
        return false;
      case fault::FaultMode::kDelayReply:
        // Overloaded, not broken: sleep a seeded simulated delay, then
        // serve the request normally. Queued callers see the added wait.
        (void)env.SleepNs(
            env.kernel().faults().DrawDelayNs(fault::FaultPoint::kServerHandlerEntry));
        return true;
    }
    return true;
  }

 private:
  // The reply Reply() recorded for the request in dispatch (token 0: none).
  struct PendingReply {
    uint64_t token = 0;
    std::vector<uint8_t> inline_bytes;
    std::vector<uint8_t> ref_bytes;
    PortName grant = kNullPort;
    base::Status completion = base::Status::kOk;
  };

  // The loop's one receive: with a recorded reply pending, the reply and
  // the receive share one RpcReplyAndReceive trap; a dispatch that kept its
  // token (a deferred reply) or sent nothing leaves a plain receive.
  base::Result<RpcRequest> ReplyAndReceive(Env& env, void* buf, uint32_t cap, RpcRef* ref,
                                           uint64_t timeout_ns) {
    if (reply_.token == 0) {
      return env.RpcReceive(port_, buf, cap, ref, timeout_ns);
    }
    const uint64_t token = reply_.token;
    reply_.token = 0;
    const auto& ref_bytes = reply_.ref_bytes;
    return env.RpcReplyAndReceive(
        token, reply_.inline_bytes.data(), static_cast<uint32_t>(reply_.inline_bytes.size()),
        port_, buf, cap, ref, ref_bytes.empty() ? nullptr : ref_bytes.data(),
        static_cast<uint32_t>(ref_bytes.size()), reply_.grant, reply_.completion, timeout_ns);
  }

  void DestroyReceivePort(Env& env) {
    if (!port_destroyed_) {
      port_destroyed_ = true;
      (void)env.kernel().PortDestroy(env.task(), port_);
    }
  }

  void SendHeartbeat(Env& env) {
    HeartbeatPing ping{env.task().id()};
    MachMessage msg;
    msg.msg_id = kHeartbeatMsgId;
    msg.dest = health_right_;
    msg.inline_data.assign(reinterpret_cast<const uint8_t*>(&ping),
                           reinterpret_cast<const uint8_t*>(&ping) + sizeof(ping));
    // Zero timeout: a full or dead health port must never block the server.
    // A dropped beat only advances the watchdog clock, it cannot wedge us.
    (void)env.kernel().MachMsgSend(std::move(msg), /*timeout_ns=*/0);
    last_beat_ns_ = env.NowNs();
    requests_since_beat_ = 0;
  }

  PortName port_;
  std::string name_;
  std::string ops_counter_;
  std::vector<uint8_t> ref_buf_;
  PendingReply reply_;
  uint64_t dispatching_ = 0;  // token of the request in dispatch (0: none)
  Env* env_ = nullptr;  // set while Run() is active; lets Stop() act at once
  bool running_ = false;
  bool stop_requested_ = false;
  bool port_destroyed_ = false;
  PortName health_right_ = kNullPort;  // kNullPort = heartbeats disabled
  uint64_t heartbeat_every_requests_ = 1;
  uint64_t heartbeat_every_ns_ = 0;  // 0 = beat only on requests
  uint64_t requests_since_beat_ = 0;
  uint64_t last_beat_ns_ = 0;
};

// Client-side stub helper: charges a per-interface stub region around a
// typed call. REQ/REP are POD structs.
class ClientStub {
 public:
  ClientStub(const std::string& interface, PortName port)
      : region_(hw::DefineKernelCode("cstub." + interface, Costs::kRpcClientStub)), port_(port) {}

  PortName port() const { return port_; }

  template <typename Req, typename Rep>
  base::Status Call(Env& env, const Req& req, Rep* rep, RpcRef* ref = nullptr,
                    const RightDescriptor* rights = nullptr, uint32_t rights_count = 0,
                    PortName* granted = nullptr, uint64_t timeout_ns = kForever) {
    env.kernel().cpu().Execute(region_);
    uint32_t reply_len = 0;
    return env.RpcCall(port_, &req, sizeof(Req), rep, sizeof(Rep), &reply_len, ref, rights,
                       rights_count, granted, timeout_ns);
  }

 private:
  hw::CodeRegion region_;
  PortName port_;
};

}  // namespace mk

#endif  // SRC_MK_SERVER_LOOP_H_
