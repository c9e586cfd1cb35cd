// Client-side RPC recovery: deadline, bounded retry, re-resolution.
//
// RpcCallRobust wraps Env::RpcCall with the recovery loop every client of a
// supervised server wants: a per-attempt simulated-time deadline (kTimedOut
// instead of hanging on a dropped reply), bounded retry with exponential
// backoff on transient failures (kBusy), and re-lookup of the destination
// through a caller-supplied resolver when the port is dead or the call timed
// out — which is how a client finds the respawned instance the restart
// manager registered under the same name. When the name cannot be resolved
// or the attempts are exhausted on a dead port, the call returns
// kUnavailable: the service is in degraded mode.
//
// Bulk data rides along unchanged: the RpcRef descriptor (including the
// out-of-line transfer the kernel picks for large payloads) is reset at the
// start of every attempt, so retries never observe a previous attempt's
// partial results.
#ifndef SRC_MK_RPC_ROBUST_H_
#define SRC_MK_RPC_ROBUST_H_

#include <cstdint>
#include <functional>

#include "src/base/status.h"
#include "src/mk/kernel.h"

namespace mk {

// Resolves the service port, e.g. via mks::NameClient::Resolve. Called on
// the first attempt when `*cached_port` is kNullPort and again after any
// failure that invalidates the cached right.
using PortResolver = std::function<base::Result<PortName>(Env&)>;

struct BreakerOptions {
  // Consecutive kBusy completions that trip the breaker open.
  uint32_t busy_threshold = 3;
  // How long the breaker stays open before admitting a half-open probe.
  // Repeated trips widen this: cooldown << trip_shift, shift capped below.
  uint64_t cooldown_ns = 2'000'000;
  uint32_t max_cooldown_shift = 6;
};

// Per-destination overload breaker for RpcCallRobust (attach one via
// RobustCallOptions::breaker; clients of the same service share it).
//
// State machine: kClosed counts consecutive kBusy completions and trips to
// kOpen at the threshold; while kOpen every attempt is refused (the robust
// call fast-fails with kUnavailable, no RPC issued) until the cooldown
// expires; the first admission after that is the half-open probe — if it
// completes kBusy the breaker re-opens with a doubled cooldown, anything
// else closes it and resets. The breaker only tracks overload (kBusy):
// dead-port and timeout failures are the restart/re-resolve machinery's
// job and leave it untouched.
//
// Single-threaded by construction, like everything on the simulated
// machine: green threads never preempt inside a host-side method.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const BreakerOptions& opts = BreakerOptions()) : opts_(opts) {}

  // True if an attempt may be issued at simulated time `now_ns`. While open,
  // false until the cooldown passes; the admission that ends the open window
  // is the half-open probe, and further attempts are refused until its
  // outcome arrives.
  bool Admit(uint64_t now_ns) {
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (now_ns < open_until_ns_) {
          return false;
        }
        state_ = State::kHalfOpen;
        return true;
      case State::kHalfOpen:
        return false;  // one probe at a time
    }
    return true;
  }

  // Feed the outcome of an admitted attempt.
  void OnBusy(uint64_t now_ns) {
    ++consecutive_busy_;
    if (state_ == State::kHalfOpen || consecutive_busy_ >= opts_.busy_threshold) {
      Trip(now_ns);
    }
  }
  void OnSuccess() {
    consecutive_busy_ = 0;
    trip_shift_ = 0;
    state_ = State::kClosed;
  }

  State state() const { return state_; }
  uint32_t consecutive_busy() const { return consecutive_busy_; }
  uint64_t trips() const { return trips_; }

 private:
  void Trip(uint64_t now_ns) {
    state_ = State::kOpen;
    open_until_ns_ = now_ns + (opts_.cooldown_ns << trip_shift_);
    if (trip_shift_ < opts_.max_cooldown_shift) {
      ++trip_shift_;
    }
    ++trips_;
  }

  BreakerOptions opts_;
  State state_ = State::kClosed;
  uint32_t consecutive_busy_ = 0;
  uint32_t trip_shift_ = 0;
  uint64_t open_until_ns_ = 0;
  uint64_t trips_ = 0;
};

struct RobustCallOptions {
  // Per-attempt deadline in simulated ns; kForever disables the deadline
  // (then a dropped reply blocks forever, as plain RpcCall would).
  uint64_t attempt_timeout_ns = 2'000'000'000;
  uint32_t max_attempts = 4;
  // Backoff before the 2nd, 3rd, ... attempt; doubles every retry. Gives a
  // restart manager's backoff window time to pass in simulated time.
  // Each retry sleeps a uniform draw from [backoff/2, backoff] out of a
  // stream seeded by the calling thread's id (deterministic per-thread
  // jitter), so clients of a restarted server fan out instead of
  // re-resolving in lockstep (thundering herd). Same seed, same schedule.
  uint64_t retry_backoff_ns = 500'000;
  // Optional shared overload breaker. When attached, consecutive kBusy
  // completions widen the backoff (retry_backoff_ns << consecutive_busy)
  // and a tripped breaker fast-fails the whole call with kUnavailable
  // before any RPC is issued. nullptr = breaker disabled.
  CircuitBreaker* breaker = nullptr;
};

// Calls `port` (resolving it first if `*cached_port` is kNullPort) and
// retries per `opts`. On success `*cached_port` holds a usable send right
// for subsequent calls. Retryable failures: kPortDead / kInvalidName /
// kTimedOut (cached right invalidated, resolver consulted again) and kBusy
// (same right retried). Everything else — including application-level reply
// payloads — is returned as-is.
base::Status RpcCallRobust(Env& env, const PortResolver& resolve, PortName* cached_port,
                           const void* req, uint32_t req_len, void* reply, uint32_t reply_cap,
                           const RobustCallOptions& opts = RobustCallOptions(),
                           uint32_t* reply_len = nullptr, RpcRef* ref = nullptr,
                           PortName* granted = nullptr);

}  // namespace mk

#endif  // SRC_MK_RPC_ROBUST_H_
