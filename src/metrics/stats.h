// Measurement helpers: latency percentiles, throughput, time series.
#ifndef SRC_METRICS_STATS_H_
#define SRC_METRICS_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace splitio {

// Records individual samples (latencies, sizes) and reports order statistics.
class LatencyRecorder {
 public:
  void Add(Nanos sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }

  // p in [0, 100]. Returns 0 for an empty recorder (explicitly: there is no
  // sample to report, and callers treat 0 as "no data"). Nearest-rank
  // (ceil) percentile: the smallest sample with at least p% of the samples
  // at or below it. Always an observed sample — the previous interpolating
  // definition averaged adjacent order statistics, which skewed tail
  // percentiles low on small sample counts (p99 of {1ms, 1s} reported
  // ~990ms instead of the actually-observed 1s).
  // Small-sample tails: with fewer than 1/(1-p/100) samples the nearest
  // rank is the last sample, i.e. Percentile(99.9) == Max() below 1000
  // samples. That errs strict (a thin sample never hides a bad tail);
  // callers that need to distinguish "true p99.9" from "max standing in
  // for it" check TailResolved(p).
  Nanos Percentile(double p) {
    if (samples_.empty()) {
      return 0;
    }
    EnsureSorted();
    if (p <= 0) {
      return samples_.front();
    }
    double rank = p / 100.0 * static_cast<double>(samples_.size());
    auto idx = static_cast<size_t>(std::ceil(rank));
    idx = std::min(std::max<size_t>(idx, 1), samples_.size());
    return samples_[idx - 1];
  }

  // Whether there are enough samples for Percentile(p) to name a rank
  // strictly inside the sorted order (false whenever it degenerates to
  // Max()). p99.9 needs > 1000 samples, p99 needs > 100.
  bool TailResolved(double p) const {
    if (p <= 0 || p >= 100) {
      return false;
    }
    double need = 100.0 / (100.0 - p);
    return static_cast<double>(samples_.size()) > need;
  }

  Nanos Max() {
    if (samples_.empty()) {
      return 0;
    }
    EnsureSorted();
    return samples_.back();
  }

  double MeanMillis() const {
    if (samples_.empty()) {
      return 0;
    }
    double sum = 0;
    for (Nanos s : samples_) {
      sum += ToMillis(s);
    }
    return sum / static_cast<double>(samples_.size());
  }

  const std::vector<Nanos>& samples() const { return samples_; }

 private:
  void EnsureSorted() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<Nanos> samples_;
  bool sorted_ = true;
};

// Accumulates bytes moved and reports MB/s over the elapsed interval.
class ThroughputMeter {
 public:
  void Start(Nanos now) { start_ = now; }
  void AddBytes(uint64_t bytes) { bytes_ += bytes; }

  uint64_t bytes() const { return bytes_; }

  double MBps(Nanos now) const {
    Nanos elapsed = now - start_;
    if (elapsed <= 0) {
      return 0;
    }
    return static_cast<double>(bytes_) / (1024.0 * 1024.0) /
           ToSeconds(elapsed);
  }

  void Reset(Nanos now) {
    start_ = now;
    bytes_ = 0;
  }

 private:
  Nanos start_ = 0;
  uint64_t bytes_ = 0;
};

// Summary statistics over a set of values.
struct Summary {
  double mean = 0;
  double stdev = 0;
  double min = 0;
  double max = 0;
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) {
    return s;
  }
  double sum = 0;
  s.min = values.front();
  s.max = values.front();
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(values.size());
  double var = 0;
  for (double v : values) {
    var += (v - s.mean) * (v - s.mean);
  }
  s.stdev = std::sqrt(var / static_cast<double>(values.size()));
  return s;
}

}  // namespace splitio

#endif  // SRC_METRICS_STATS_H_
