// Metric registry: named counters, high-water gauges and log-scaled cycle
// histograms, recorded host-side only (no simulated cost). Names are ordered
// (std::map) so every export is deterministic.
#ifndef SRC_MK_TRACE_METRICS_H_
#define SRC_MK_TRACE_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace mk {
namespace trace {

// Power-of-two bucketed histogram: bucket i counts values in [2^(i-1), 2^i)
// (bucket 0 counts zero). 64 buckets cover the full uint64 range, which is
// plenty for cycle latencies.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }
  // Upper bound of the bucket containing the p-th percentile (p in [0,100]).
  uint64_t PercentileBound(double p) const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

class MetricRegistry {
 public:
  // Monotonic counter; creates it at zero on first use.
  uint64_t& Counter(const std::string& name);
  // Gauge that remembers the highest value observed (queue depth HWMs).
  void GaugeMax(const std::string& name, uint64_t value);
  Histogram& Hist(const std::string& name);

  const std::map<std::string, uint64_t>& counters() const { return counters_; }
  const std::map<std::string, uint64_t>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& hists() const { return hists_; }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> gauges_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace trace
}  // namespace mk

#endif  // SRC_MK_TRACE_METRICS_H_
