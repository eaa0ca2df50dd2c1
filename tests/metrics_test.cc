#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cost_model.h"
#include "rdma/buffer_pool.h"
#include "rdma/verbs.h"
#include "sim/link_fabric.h"

namespace rdmajoin {
namespace {

/// Structural sanity of a JSON document: balanced braces/brackets outside of
/// string literals, no trailing garbage. Not a full parser, but enough to
/// catch missing commas-as-braces and unterminated strings.
bool BalancedJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Counter, AccumulatesExactly) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.Increment();
  c.Add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Gauge, TracksHighWater) {
  Gauge g;
  g.Set(5.0);
  g.Set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  g.Add(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
  EXPECT_DOUBLE_EQ(g.max(), 12.0);
}

TEST(Histogram, PowerOfTwoBuckets) {
  Histogram h;
  h.Observe(0.5);     // bucket 0: <= 1
  h.Observe(1.0);     // bucket 0
  h.Observe(1.5);     // bucket 1: (1, 2]
  h.Observe(1024.0);  // bucket 10: (512, 1024]
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 1024.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1024.0);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[10], 1u);
}

TEST(Histogram, IgnoresNegativeAndNan) {
  Histogram h;
  h.Observe(-1.0);
  h.Observe(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(Histogram, NearestRankPercentilesClampToObservedRange) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);

  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);     // p <= 0 is the minimum
  EXPECT_DOUBLE_EQ(h.Percentile(50), 64.0);   // bucket upper bound (2^6)
  EXPECT_DOUBLE_EQ(h.Percentile(95), 100.0);  // 128-bucket, clamped to max
  EXPECT_DOUBLE_EQ(h.Percentile(99), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);

  // A single sample reports itself at every percentile: the clamp to
  // [min, max] beats the power-of-two bound (8.0 for 5.0).
  Histogram single;
  single.Observe(5.0);
  EXPECT_DOUBLE_EQ(single.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(single.Percentile(99), 5.0);
  Histogram narrow;
  narrow.Observe(6.0);
  narrow.Observe(7.0);
  EXPECT_DOUBLE_EQ(narrow.Percentile(50), 7.0);
}

TEST(MetricsRegistry, HistogramSnapshotBytesArePinned) {
  // Pins the histogram snapshot schema including the p50/p95/p99 fields:
  // any serialization change must update this expectation consciously.
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h");
  h->Observe(1.0);    // bucket 0 (<= 1)
  h->Observe(3.0);    // bucket 2 ((2, 4])
  h->Observe(100.0);  // bucket 7 ((64, 128])
  EXPECT_EQ(reg.SnapshotJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{"
            "\"h\":{\"count\":3,\"sum\":104,\"min\":1,\"max\":1e+02,"
            "\"p50\":4,\"p95\":1e+02,\"p99\":1e+02,"
            "\"buckets\":[[1,1],[4,1],[128,1]]}},\"time_series\":{}}");
}

TEST(TimeSeries, AddRangeDistributesProportionally) {
  TimeSeries ts(1.0);
  // 30 bytes over [0.5, 3.5): 1/6 in bucket 0, 1/3 in 1, 1/3 in 2, 1/6 in 3.
  ts.AddRange(0.5, 3.5, 30.0);
  ASSERT_GE(ts.buckets().size(), 4u);
  EXPECT_NEAR(ts.buckets()[0], 5.0, 1e-9);
  EXPECT_NEAR(ts.buckets()[1], 10.0, 1e-9);
  EXPECT_NEAR(ts.buckets()[2], 10.0, 1e-9);
  EXPECT_NEAR(ts.buckets()[3], 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(ts.total(), 30.0);
}

TEST(TimeSeries, AddRangeAcrossRoundedEdgeKeepsEveryByte) {
  // 0.3 / 0.01 rounds to 29.999..., while the walk's edge 30 * 0.01 is 0.3:
  // the range must continue into bucket 30 instead of stopping there.
  TimeSeries ts(0.01);
  ts.AddRange(0.295, 0.305, 10.0);
  double sum = 0;
  for (double b : ts.buckets()) sum += b;
  EXPECT_NEAR(sum, 10.0, 1e-9);
  ASSERT_EQ(ts.buckets().size(), 31u);
  EXPECT_NEAR(ts.buckets()[29], 5.0, 1e-9);
  EXPECT_NEAR(ts.buckets()[30], 5.0, 1e-9);
}

TEST(TimeSeries, CoarsensInsteadOfGrowingUnbounded) {
  TimeSeries ts(1.0, /*max_buckets=*/8);
  for (int t = 0; t < 100; ++t) ts.Add(t + 0.5, 1.0);
  EXPECT_DOUBLE_EQ(ts.total(), 100.0);
  EXPECT_LE(ts.buckets().size(), 8u);
  EXPECT_GT(ts.bucket_seconds(), 1.0);
  double sum = 0;
  for (double b : ts.buckets()) sum += b;
  EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(TimeSeries, CoarseningFoldsBucketsExactly) {
  TimeSeries ts(1.0, /*max_buckets=*/4);
  ts.AddRange(0.0, 4.0, 4.0);  // [1, 1, 1, 1]
  EXPECT_DOUBLE_EQ(ts.bucket_seconds(), 1.0);
  ts.Add(5.5, 1.0);  // Index 5 trips the cap: fold to [2, 2], width 2.
  EXPECT_DOUBLE_EQ(ts.bucket_seconds(), 2.0);
  ASSERT_EQ(ts.buckets().size(), 3u);
  EXPECT_DOUBLE_EQ(ts.buckets()[0], 2.0);  // 1 + 1, bit-exact
  EXPECT_DOUBLE_EQ(ts.buckets()[1], 2.0);
  EXPECT_DOUBLE_EQ(ts.buckets()[2], 1.0);
  EXPECT_DOUBLE_EQ(ts.total(), 5.0);

  // An odd bucket count folds the dangling last bucket alone, and a single
  // far-future Add can coarsen more than once in one call.
  TimeSeries odd(1.0, /*max_buckets=*/4);
  odd.Add(0.5, 1.0);
  odd.Add(1.5, 2.0);
  odd.Add(2.5, 4.0);
  odd.Add(9.5, 8.0);  // width 1 -> 2 -> 4
  EXPECT_DOUBLE_EQ(odd.bucket_seconds(), 4.0);
  ASSERT_EQ(odd.buckets().size(), 3u);
  EXPECT_DOUBLE_EQ(odd.buckets()[0], 7.0);
  EXPECT_DOUBLE_EQ(odd.buckets()[1], 0.0);
  EXPECT_DOUBLE_EQ(odd.buckets()[2], 8.0);

  // AddRange walking across a mid-walk coarsening stays exact: 8 units over
  // [0, 8) with a 4-bucket cap ends as [2, 2, 2, 2] at width 2.
  TimeSeries walk(1.0, /*max_buckets=*/4);
  walk.AddRange(0.0, 8.0, 8.0);
  EXPECT_DOUBLE_EQ(walk.bucket_seconds(), 2.0);
  ASSERT_EQ(walk.buckets().size(), 4u);
  for (double b : walk.buckets()) EXPECT_DOUBLE_EQ(b, 2.0);
  EXPECT_DOUBLE_EQ(walk.total(), 8.0);
}

TEST(TimeSeries, SnapshotIsByteIdenticalAcrossDoubleCoarsening) {
  // A run long enough to cross the default 4096-bucket cap twice
  // (1 s -> 2 s -> 4 s buckets) must snapshot byte-identically no matter
  // when the coarsening happened: feeding the same samples high-first
  // coarsens immediately, in-order coarsens mid-run, and the folds are
  // exact either way.
  auto populate = [](MetricsRegistry* reg, bool high_first) {
    TimeSeries* ts = reg->GetTimeSeries("t", 1.0);
    std::vector<double> times;
    for (int t = 0; t < 10000; t += 250) times.push_back(t + 0.5);
    if (high_first) std::reverse(times.begin(), times.end());
    for (double t : times) ts->Add(t, 1.0);
  };
  MetricsRegistry in_order, high_first;
  populate(&in_order, false);
  populate(&high_first, true);
  EXPECT_DOUBLE_EQ(in_order.FindTimeSeries("t")->bucket_seconds(), 4.0);
  const std::string snap = in_order.SnapshotJson();
  EXPECT_EQ(snap, high_first.SnapshotJson());
  EXPECT_EQ(snap, in_order.SnapshotJson());  // Re-snapshot: same bytes.
}

TEST(MetricsRegistry, HandlesAreStableAndFindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("a"), nullptr);
  Counter* c = reg.GetCounter("a");
  c->Increment();
  EXPECT_EQ(reg.GetCounter("a"), c);
  EXPECT_EQ(reg.FindCounter("a"), c);
  EXPECT_EQ(reg.FindGauge("a"), nullptr);  // Separate namespaces per type.
  TimeSeries* ts = reg.GetTimeSeries("t", 0.5);
  EXPECT_EQ(reg.GetTimeSeries("t", 99.0), ts);
  EXPECT_DOUBLE_EQ(ts->bucket_seconds(), 0.5);
}

TEST(MetricsRegistry, ToJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("fabric.host0.egress_bytes")->Add(123.0);
  reg.GetGauge("fabric.active_flows")->Set(4.0);
  reg.GetHistogram("fabric.message_bytes")->Observe(65536.0);
  reg.GetTimeSeries("fabric.host0.egress_active_bytes", 0.01)->Add(0.005, 1.0);
  const std::string json = reg.SnapshotJson();
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"fabric.host0.egress_bytes\":123"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"time_series\""), std::string::npos);
}

TEST(MetricsRegistry, SnapshotJsonIsDeterministicAcrossRegistrations) {
  // Two registries populated with the same values in different registration
  // orders must serialize byte-identically (names are sorted per section),
  // and repeated snapshots of one registry must be byte-identical too.
  auto populate = [](MetricsRegistry* reg, bool reversed) {
    const std::vector<std::pair<std::string, double>> counters = {
        {"b.count", 2.0}, {"a.count", 1.0}, {"c.count", 3.0}};
    if (reversed) {
      for (auto it = counters.rbegin(); it != counters.rend(); ++it) {
        reg->GetCounter(it->first)->Add(it->second);
      }
    } else {
      for (const auto& kv : counters) {
        reg->GetCounter(kv.first)->Add(kv.second);
      }
    }
    reg->GetGauge("z.gauge")->Set(0.125);
    reg->GetGauge("a.gauge")->Set(-4.5);
    reg->GetHistogram("h.bytes")->Observe(4096.0);
    reg->GetTimeSeries("t.series", 0.01)->Add(0.005, 7.0);
  };
  MetricsRegistry forward, backward;
  populate(&forward, false);
  populate(&backward, true);
  const std::string snap = forward.SnapshotJson();
  EXPECT_EQ(snap, backward.SnapshotJson());
  EXPECT_EQ(snap, forward.SnapshotJson());  // Re-snapshot: identical bytes.
  EXPECT_TRUE(BalancedJson(snap)) << snap;
}

TEST(FabricMetrics, DeliveredBytesAgreeWithFabricCounters) {
  FabricConfig fc;
  fc.num_hosts = 3;
  fc.egress_bytes_per_sec = 1000.0;
  fc.ingress_bytes_per_sec = 1000.0;
  fc.message_rate_per_host = 0.0;
  fc.base_latency_seconds = 0.0;
  LinkFabric fabric(fc);
  MetricsRegistry reg;
  fabric.EnableMetrics(&reg, "fabric", 0.01);

  fabric.Enqueue(0, 1, 500.0, 0.0);
  fabric.Enqueue(0, 2, 250.0, 0.0);
  fabric.Enqueue(2, 1, 125.0, 0.1);
  std::vector<LinkFabric::Completion> done;
  fabric.AdvanceTo(10.0, &done);
  ASSERT_EQ(done.size(), 3u);

  // Bytes delivered per source host, from the enqueues above.
  const double sent_from[] = {750.0, 0.0, 125.0};
  for (uint32_t h = 0; h < fc.num_hosts; ++h) {
    const Counter* egress =
        reg.FindCounter("fabric.host" + std::to_string(h) + ".egress_bytes");
    ASSERT_NE(egress, nullptr);
    EXPECT_DOUBLE_EQ(egress->value(), sent_from[h]);
  }
  double ingress_sum = 0;
  for (uint32_t h = 0; h < fc.num_hosts; ++h) {
    ingress_sum +=
        reg.FindCounter("fabric.host" + std::to_string(h) + ".ingress_bytes")
            ->value();
  }
  EXPECT_DOUBLE_EQ(ingress_sum, fabric.total_bytes_delivered());
  EXPECT_DOUBLE_EQ(reg.FindCounter("fabric.messages")->value(), 3.0);
  EXPECT_EQ(reg.FindHistogram("fabric.message_bytes")->count(), 3u);
  EXPECT_GE(reg.FindGauge("fabric.active_flows")->max(), 2.0);
  // The activity timelines conserve the transferred bytes.
  double activity = 0;
  for (uint32_t h = 0; h < fc.num_hosts; ++h) {
    activity += reg.FindTimeSeries("fabric.host" + std::to_string(h) +
                                   ".egress_active_bytes")
                    ->total();
  }
  EXPECT_NEAR(activity, fabric.total_bytes_delivered(), 1e-6);
}

TEST(DeviceMetrics, CountsWorkRequestsRegistrationsAndPoolOccupancy) {
  MetricsRegistry reg;
  CostModel costs;
  RdmaDevice a(0, nullptr, costs);
  RdmaDevice b(1, nullptr, costs);
  a.EnableMetrics(&reg, "rdma.dev0");
  b.EnableMetrics(&reg, "rdma.dev1");

  std::vector<uint8_t> mem_a(1024), mem_b(1024);
  auto mr_a = a.RegisterMemory(mem_a.data(), mem_a.size());
  auto mr_b = b.RegisterMemory(mem_b.data(), mem_b.size());
  ASSERT_TRUE(mr_a.ok());
  ASSERT_TRUE(mr_b.ok());
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.regions_registered")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.bytes_registered")->value(), 1024.0);
  EXPECT_DOUBLE_EQ(reg.FindGauge("rdma.dev0.live_regions")->value(), 1.0);

  CompletionQueue a_send, a_recv, b_send, b_recv;
  QueuePair qa(&a, &a_send, &a_recv);
  QueuePair qb(&b, &b_send, &b_recv);
  ASSERT_TRUE(QueuePair::Connect(&qa, &qb).ok());
  ASSERT_TRUE(qb.PostRecv(1, mr_b->lkey, 0, 512).ok());
  ASSERT_TRUE(qa.PostSend(2, mr_a->lkey, 0, 256).ok());
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.send_posted")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.send_completed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev1.recv_posted")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev1.recv_completed")->value(), 1.0);
  ASSERT_TRUE(qa.PostWrite(3, mr_a->lkey, 0, mr_b->rkey, 0, 128).ok());
  ASSERT_TRUE(qa.PostRead(4, mr_a->lkey, 0, mr_b->rkey, 0, 128).ok());
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.write_posted")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.read_posted")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.write_completed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.read_completed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.FindCounter("rdma.dev0.failed_completions")->value(), 0.0);

  {
    RegisteredBufferPool pool(&a, 256);
    auto b1 = pool.Acquire();
    auto b2 = pool.Acquire();
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(b2.ok());
    ASSERT_TRUE(pool.Release(*b1).ok());
    ASSERT_TRUE(pool.Release(*b2).ok());
    auto b3 = pool.Acquire();
    ASSERT_TRUE(b3.ok());
    ASSERT_TRUE(pool.Release(*b3).ok());
  }
  const Gauge* occupancy = reg.FindGauge("rdma.dev0.pool_outstanding");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_DOUBLE_EQ(occupancy->max(), 2.0);  // High-water mark.
  EXPECT_DOUBLE_EQ(occupancy->value(), 0.0);

  ASSERT_TRUE(a.DeregisterMemory(*mr_a).ok());
  EXPECT_DOUBLE_EQ(reg.FindGauge("rdma.dev0.live_regions")->value(), 0.0);
  ASSERT_TRUE(b.DeregisterMemory(*mr_b).ok());
}

}  // namespace
}  // namespace rdmajoin
