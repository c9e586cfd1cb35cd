#include "src/mk/rpc_robust.h"

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/mk/trace/tracer.h"

namespace mk {

namespace {
// Per-thread deterministic jitter stream: distinct threads draw distinct
// sequences (so a respawned server's clients fan out), while the same run
// with the same thread ids replays exactly. Simulated time never feeds the
// seed — the stream depends only on who is retrying.
base::Rng JitterRng(Thread* thread) {
  const uint64_t tid = thread == nullptr ? 0 : thread->id();
  return base::Rng((tid + 1) * 0x9E3779B97F4A7C15ull);
}
}  // namespace

base::Status RpcCallRobust(Env& env, const PortResolver& resolve, PortName* cached_port,
                           const void* req, uint32_t req_len, void* reply, uint32_t reply_cap,
                           const RobustCallOptions& opts, uint32_t* reply_len, RpcRef* ref,
                           PortName* granted) {
  // Umbrella span covering the whole robust call: every attempt's kRpc span
  // (and any re-resolve RPC to the name server) becomes a child of this one,
  // so retries share a single trace_id instead of starting fresh traces.
  trace::ScopedSpan robust(env.kernel().tracer(), trace::SpanKind::kRpcRobust,
                           trace::EventType::kRpcRobustCall, trace::EventType::kRpcRobustReturn,
                           *cached_port);
  base::Status last = base::Status::kUnavailable;
  uint64_t backoff = opts.retry_backoff_ns;
  base::Rng jitter = JitterRng(env.thread());
  for (uint32_t attempt = 0; attempt < opts.max_attempts; ++attempt) {
    if (attempt > 0) {
      uint64_t sleep_ns = backoff;
      if (opts.breaker != nullptr) {
        // Consecutive kBusy completions seen by the shared breaker widen
        // the backoff beyond this call's own doubling: the whole client
        // population slows down together under sustained overload.
        const uint32_t shift =
            opts.breaker->consecutive_busy() < 10 ? opts.breaker->consecutive_busy() : 10;
        const uint64_t widened = opts.retry_backoff_ns << shift;
        if (widened > sleep_ns) {
          sleep_ns = widened;
        }
      }
      if (sleep_ns > 1) {
        // Uniform in [sleep/2, sleep]: desynchronizes retries across
        // threads without shrinking the mean wait below half.
        sleep_ns = sleep_ns / 2 + jitter.NextBelow(sleep_ns / 2 + 1);
      }
      (void)env.SleepNs(sleep_ns);
      backoff *= 2;
    }
    if (opts.breaker != nullptr && !opts.breaker->Admit(env.NowNs())) {
      // Breaker open: the destination is shedding — fail fast instead of
      // adding another caller to its queue. Degraded, not hung.
      ++env.kernel().tracer().metrics().Counter("mk.rpc.breaker_fast_fail");
      robust.set_end_payload(static_cast<uint64_t>(base::Status::kUnavailable));
      return base::Status::kUnavailable;
    }
    if (ref != nullptr) {
      // A failed attempt (kBusy, timeout, dead port) must not leave partial
      // transfer results behind: the next attempt — possibly against a
      // respawned instance — starts from a clean bulk descriptor.
      ref->recv_len = 0;
      ref->sent_ool = false;
      ref->recv_ool = false;
    }
    if (*cached_port == kNullPort) {
      auto resolved = resolve(env);
      if (!resolved.ok()) {
        // Name not (re-)registered yet: the server may still be restarting,
        // or the restart manager gave up and unregistered it.
        last = resolved.status();
        continue;
      }
      *cached_port = *resolved;
    }
    const base::Status st = env.RpcCall(*cached_port, req, req_len, reply, reply_cap, reply_len,
                                        ref, nullptr, 0, granted, opts.attempt_timeout_ns);
    switch (st) {
      case base::Status::kPortDead:
      case base::Status::kInvalidName:
        // The server died (or our cached right went stale); look it up again.
        // Not an overload signal: the breaker is left untouched.
        *cached_port = kNullPort;
        last = st;
        continue;
      case base::Status::kTimedOut:
        // A dropped reply is indistinguishable from a dead server; the old
        // right may still name a wedged instance, so re-resolve too.
        *cached_port = kNullPort;
        last = st;
        continue;
      case base::Status::kBusy:
        if (opts.breaker != nullptr) {
          opts.breaker->OnBusy(env.NowNs());
        }
        last = st;
        continue;
      default:
        if (opts.breaker != nullptr) {
          opts.breaker->OnSuccess();
        }
        robust.set_end_payload(static_cast<uint64_t>(st));
        return st;
    }
  }
  // Exhausted. A dead/unresolvable destination means the service is gone or
  // degraded; report that uniformly as kUnavailable. Timeouts keep their
  // own status so callers can distinguish "slow" from "gone".
  if (last == base::Status::kPortDead || last == base::Status::kInvalidName ||
      last == base::Status::kNotFound) {
    last = base::Status::kUnavailable;
  }
  robust.set_end_payload(static_cast<uint64_t>(last));
  return last;
}

}  // namespace mk
