// Deterministic, seeded fault injector.
//
// Host-side instrumentation in the same spirit as the tracer: disabled by
// default, and when disabled every Fire() call is a branch on one bool —
// no RNG draw, no allocation, and zero simulated cycles ever (the injector
// never touches hw::Cpu). When enabled, each armed fault point draws from
// one xorshift64* stream seeded by Enable(seed), so a campaign is replayed
// exactly by re-running with the same seed: same fire sequence, same trace.
//
// The injector only *decides*; each call site implements the returned mode
// (crash the task, drop the reply, kill the port, return kBusy) with the
// kernel state it has in hand. Every fired fault is recorded host-side and
// emitted as EventType::kFaultInjected so campaigns are auditable from the
// trace alone.
#ifndef SRC_MK_FAULT_INJECTOR_H_
#define SRC_MK_FAULT_INJECTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/mk/fault/points.h"

namespace mk {

namespace trace {
class Tracer;
}  // namespace trace

namespace fault {

// One fired fault, in firing order.
struct FiredFault {
  FaultPoint point = FaultPoint::kCount;
  FaultMode mode = FaultMode::kNone;
  uint64_t seq = 0;  // 0-based index in the campaign's firing order
};

class Injector {
 public:
  explicit Injector(trace::Tracer* tracer) : tracer_(tracer) {}

  // Arms the RNG stream. Clears any previous campaign state (log, counters,
  // per-point arming survive only until the next Enable).
  void Enable(uint64_t seed);
  bool enabled() const { return enabled_; }
  uint64_t seed() const { return seed_; }

  // Arms `point` to fire `mode` with probability `percent` (0..100) per
  // visit, for at most `max_fires` total fires. Re-arming replaces the
  // previous configuration for that point.
  void Arm(FaultPoint point, FaultMode mode, uint32_t percent = 100,
           uint64_t max_fires = ~0ull);
  // Arms kDelayReply at `point` with an explicit simulated-ns delay range
  // [min_ns, max_ns]; plain Arm(point, kDelayReply) uses the default range
  // below. Each fire's delay is drawn from the campaign's RNG stream, so it
  // replays with the seed like every other decision.
  void ArmDelay(FaultPoint point, uint64_t min_delay_ns, uint64_t max_delay_ns,
                uint32_t percent = 100, uint64_t max_fires = ~0ull);
  void DisarmAll();

  // Default kDelayReply range: long enough to trip queue build-up, short
  // enough that a robust client's per-attempt deadline survives it.
  static constexpr uint64_t kDefaultDelayMinNs = 500'000;
  static constexpr uint64_t kDefaultDelayMaxNs = 2'000'000;

  // Draws the simulated delay for a kDelayReply fire at `point` (call after
  // Fire() returned kDelayReply).
  uint64_t DrawDelayNs(FaultPoint point);

  // Called at each fault point. Returns the mode to apply, or kNone.
  // When the injector is disabled this is a single predictable branch.
  FaultMode Fire(FaultPoint point) {
    if (!enabled_) {
      return FaultMode::kNone;
    }
    return FireSlow(point);
  }

  // Campaign results (host-side, zero simulated cost).
  const std::vector<FiredFault>& log() const { return log_; }
  uint64_t fires(FaultPoint point) const {
    return points_[static_cast<size_t>(point)].fired;
  }
  uint64_t total_fires() const { return log_.size(); }

 private:
  struct PointState {
    FaultMode mode = FaultMode::kNone;
    uint32_t percent = 0;
    uint64_t max_fires = 0;
    uint64_t fired = 0;
    uint64_t delay_min_ns = kDefaultDelayMinNs;
    uint64_t delay_max_ns = kDefaultDelayMaxNs;
  };

  FaultMode FireSlow(FaultPoint point);

  trace::Tracer* tracer_;
  bool enabled_ = false;
  uint64_t seed_ = 0;
  base::Rng rng_{1};
  std::array<PointState, static_cast<size_t>(FaultPoint::kCount)> points_{};
  std::vector<FiredFault> log_;
};

}  // namespace fault
}  // namespace mk

#endif  // SRC_MK_FAULT_INJECTOR_H_
