#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/json.h"

namespace rdmajoin {

void Histogram::Observe(double v) {
  if (v < 0 || std::isnan(v)) return;
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++count_;
  sum_ += v;
  size_t b = 0;
  // Bucket i holds samples in (2^(i-1), 2^i].
  while (b + 1 < kBuckets && v > static_cast<double>(uint64_t{1} << b)) ++b;
  ++buckets_[b];
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0) return min();
  if (p >= 100) return max_;
  const double target = std::ceil(p / 100.0 * static_cast<double>(count_));
  const uint64_t rank = target < 1 ? 1 : static_cast<uint64_t>(target);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      const double upper = static_cast<double>(uint64_t{1} << b);
      return std::clamp(upper, min(), max_);
    }
  }
  return max_;
}

size_t TimeSeries::BucketFor(double t) {
  if (t < 0) t = 0;
  // t / width can round down to the previous bucket for a t that sits on
  // the edge (b + 1) * width (0.3 / 0.01 < 30). AddRange walks from edge to
  // edge, so it would stall there and drop the rest of its interval; take
  // the bucket whose edges, computed the same way, contain t.
  const auto index_of = [this](double x) {
    size_t i = static_cast<size_t>(x / bucket_seconds_);
    if ((static_cast<double>(i) + 1.0) * bucket_seconds_ <= x) ++i;
    return i;
  };
  size_t index = index_of(t);
  while (index >= max_buckets_) {
    // Coarsen: double the width, fold adjacent buckets together.
    const size_t folded = (buckets_.size() + 1) / 2;
    for (size_t i = 0; i < folded; ++i) {
      double v = buckets_[2 * i];
      if (2 * i + 1 < buckets_.size()) v += buckets_[2 * i + 1];
      buckets_[i] = v;
    }
    buckets_.resize(folded);
    bucket_seconds_ *= 2;
    index = index_of(t);
  }
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0.0);
  return index;
}

void TimeSeries::Add(double t, double v) {
  buckets_[BucketFor(t)] += v;
  total_ += v;
}

void TimeSeries::AddRange(double t0, double t1, double total) {
  if (t0 < 0) t0 = 0;
  if (t1 <= t0) {
    Add(t0, total);
    return;
  }
  const double span = t1 - t0;
  // Walk bucket by bucket; BucketFor may coarsen mid-walk, so the loop
  // re-derives the bucket edge from the current width each step.
  double t = t0;
  while (t < t1) {
    const size_t b = BucketFor(t);
    const double edge = (static_cast<double>(b) + 1.0) * bucket_seconds_;
    const double upto = std::min(edge, t1);
    buckets_[b] += total * (upto - t) / span;
    if (upto <= t) break;  // Defensive: no progress (degenerate widths).
    t = upto;
  }
  total_ += total;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

TimeSeries* MetricsRegistry::GetTimeSeries(const std::string& name,
                                           double bucket_seconds) {
  auto& slot = time_series_[name];
  if (slot == nullptr) slot = std::make_unique<TimeSeries>(bucket_seconds);
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

const TimeSeries* MetricsRegistry::FindTimeSeries(const std::string& name) const {
  auto it = time_series_.find(name);
  return it == time_series_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w.Key(name).Number(c->value());
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) {
    w.Key(name).BeginObject().Key("value").Number(g->value());
    w.Key("max").Number(g->max()).EndObject();
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name).BeginObject().Key("count").Uint(h->count());
    w.Key("sum").Number(h->sum());
    w.Key("min").Number(h->min());
    w.Key("max").Number(h->max());
    w.Key("p50").Number(h->Percentile(50));
    w.Key("p95").Number(h->Percentile(95));
    w.Key("p99").Number(h->Percentile(99));
    // [upper_bound, count] for non-empty buckets only.
    w.Key("buckets").BeginArray();
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h->buckets()[b] == 0) continue;
      w.BeginArray().Uint(uint64_t{1} << b).Uint(h->buckets()[b]).EndArray();
    }
    w.EndArray().EndObject();
  }
  w.EndObject().Key("time_series").BeginObject();
  for (const auto& [name, ts] : time_series_) {
    w.Key(name).BeginObject().Key("bucket_seconds").Number(ts->bucket_seconds());
    w.Key("total").Number(ts->total());
    w.Key("buckets").BeginArray();
    for (const double v : ts->buckets()) w.Number(v);
    w.EndArray().EndObject();
  }
  w.EndObject().EndObject();
  return out;
}

}  // namespace rdmajoin
