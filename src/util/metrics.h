#ifndef RDMAJOIN_UTIL_METRICS_H_
#define RDMAJOIN_UTIL_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rdmajoin {

/// Observability primitives for the simulator's hot paths.
///
/// The paper's analysis lives and dies on knowing where time and bytes go --
/// per-phase breakdowns (Fig. 7), bandwidth over message size (Fig. 3), the
/// CPU-bound/network-bound crossover -- so the rdma, sim and join layers all
/// report into one MetricsRegistry. Handles are plain pointers resolved once
/// (by name) and then updated with a single add/compare; there is no locking,
/// because one thread at a time writes a registry (the network-pass replay
/// runs beside an operator's local phases, which record no metrics:
/// OverlappedReplay in timing/replay.h), and no string work on the hot path. A registry snapshot serializes to JSON (docs/observability.md) and
/// feeds the Chrome-trace exporter (timing/chrome_trace.h).

/// Monotonically increasing sum. Stored as a double so byte totals from the
/// fluid-flow fabric (which works in double bytes) are represented exactly;
/// integral counts are exact up to 2^53.
class Counter {
 public:
  void Add(double delta) { value_ += delta; }
  void Increment() { value_ += 1.0; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Instantaneous level plus its high-water mark (e.g. buffer-pool occupancy,
/// concurrent flow count).
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void Add(double delta) { Set(value_ + delta); }
  double value() const { return value_; }
  double max() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Power-of-two bucketed histogram of non-negative samples (message sizes,
/// task durations). Bucket i counts samples in (2^(i-1), 2^i]; bucket 0
/// counts samples <= 1.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Smallest / largest observed sample; 0 when empty.
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return max_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// Nearest-rank percentile (p in [0, 100]) over the bucketed population:
  /// the upper bound of the bucket holding the ceil(p/100 * count)-th sample,
  /// clamped to [min, max] so single-sample and narrow distributions report
  /// observed values rather than power-of-two bounds. 0 when empty. The
  /// resolution is the bucket width (a factor of 2), same as the buckets the
  /// snapshot exports -- use span_query's exact percentiles when the raw
  /// population is available.
  double Percentile(double p) const;

 private:
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<uint64_t, kBuckets> buckets_{};
};

/// Accumulates a quantity over virtual time into fixed-width buckets
/// (bucket b covers [b * bucket_seconds, (b+1) * bucket_seconds)). Used for
/// per-host egress/ingress activity timelines. When a run outlives
/// max_buckets, the series coarsens itself: the bucket width doubles and
/// adjacent buckets fold together, so memory stays bounded no matter how
/// long the simulated run is.
class TimeSeries {
 public:
  explicit TimeSeries(double bucket_seconds, size_t max_buckets = 4096)
      : bucket_seconds_(bucket_seconds), max_buckets_(max_buckets) {}

  /// Adds `v` at time `t` (>= 0).
  void Add(double t, double v);
  /// Distributes `total` uniformly over [t0, t1); a zero-length interval
  /// degenerates to Add(t0, total).
  void AddRange(double t0, double t1, double total);

  double bucket_seconds() const { return bucket_seconds_; }
  const std::vector<double>& buckets() const { return buckets_; }
  double total() const { return total_; }

 private:
  /// Grows (and, past max_buckets_, coarsens) until `index` for time `t` fits.
  size_t BucketFor(double t);

  double bucket_seconds_;
  size_t max_buckets_;
  std::vector<double> buckets_;
  double total_ = 0.0;
};

/// Owner of all metrics, keyed by name. Get* creates on first use and
/// returns a pointer that stays valid for the registry's lifetime; Find*
/// looks up without creating (nullptr when absent). Names are hierarchical
/// by convention: "<layer>.<object>.<quantity>", e.g.
/// "fabric.host3.egress_bytes" or "rdma.dev0.send_posted".
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  /// `bucket_seconds` applies only on first creation.
  TimeSeries* GetTimeSeries(const std::string& name, double bucket_seconds);

  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;
  const TimeSeries* FindTimeSeries(const std::string& name) const;

  const std::map<std::string, std::unique_ptr<TimeSeries>>& time_series() const {
    return time_series_;
  }

  /// Serializes every metric to one JSON document (schema documented in
  /// docs/observability.md). Deterministic: keys are emitted in sorted order
  /// and numbers in a fixed format, so identical-seed reruns produce
  /// byte-identical snapshots and snapshots diff cleanly.
  std::string SnapshotJson() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<TimeSeries>> time_series_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_METRICS_H_
