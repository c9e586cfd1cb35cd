#include "src/mk/trace/metrics.h"

namespace mk {
namespace trace {

namespace {
int BucketOf(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  return 64 - __builtin_clzll(value);
}
}  // namespace

void Histogram::Record(uint64_t value) {
  const int b = BucketOf(value);
  ++buckets_[b >= kBuckets ? kBuckets - 1 : b];
  ++count_;
  sum_ += value;
  if (value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

uint64_t Histogram::PercentileBound(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double target = static_cast<double>(count_) * p / 100.0;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      return i == 0 ? 0 : (1ull << i) - 1;
    }
  }
  return max_;
}

uint64_t& MetricRegistry::Counter(const std::string& name) { return counters_[name]; }

void MetricRegistry::GaugeMax(const std::string& name, uint64_t value) {
  uint64_t& g = gauges_[name];
  if (value > g) {
    g = value;
  }
}

Histogram& MetricRegistry::Hist(const std::string& name) { return hists_[name]; }

}  // namespace trace
}  // namespace mk
