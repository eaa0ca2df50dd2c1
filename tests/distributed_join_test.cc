#include "join/distributed_join.h"

#include <gtest/gtest.h>

#include "baseline/radix_join.h"
#include "cluster/presets.h"
#include "timing/trace_io.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

JoinConfig SmallJoinConfig() {
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 1024.0;
  return jc;
}

void ExpectMatchesTruth(const JoinResultStats& stats, const GroundTruth& truth) {
  EXPECT_EQ(stats.matches, truth.expected_matches);
  EXPECT_EQ(stats.key_sum, truth.expected_key_sum);
  EXPECT_EQ(stats.inner_rid_sum, truth.expected_inner_rid_sum);
}

TEST(DistributedJoin, CorrectOnUniformWorkload) {
  WorkloadSpec spec;
  spec.inner_tuples = 40000;
  spec.outer_tuples = 80000;
  auto workload = GenerateWorkload(spec, 4);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  DistributedJoin join(QdrCluster(4), SmallJoinConfig());
  auto result = join.Run(workload->inner, workload->outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesTruth(result->stats, workload->truth);
  EXPECT_GT(result->times.TotalSeconds(), 0.0);
  EXPECT_GT(result->times.network_partition_seconds, 0.0);
}

TEST(DistributedJoin, AgreesWithReferenceAndBaseline) {
  WorkloadSpec spec;
  spec.inner_tuples = 5000;
  spec.outer_tuples = 20000;
  spec.seed = 7;
  auto workload = GenerateWorkload(spec, 2);
  ASSERT_TRUE(workload.ok());

  // Flatten for the single-machine joins.
  Relation r(spec.tuple_bytes), s(spec.tuple_bytes);
  for (const auto& c : workload->inner.chunks) r.AppendRaw(c.data(), c.num_tuples());
  for (const auto& c : workload->outer.chunks) s.AppendRaw(c.data(), c.num_tuples());

  JoinResultStats ref = ReferenceHashJoin(r, s);
  auto base = RadixJoin(r, s, BaselineConfig{.bits_pass1 = 4});
  ASSERT_TRUE(base.ok());
  DistributedJoin join(FdrCluster(2), SmallJoinConfig());
  auto dist = join.Run(workload->inner, workload->outer);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();

  EXPECT_EQ(ref.matches, base->stats.matches);
  EXPECT_EQ(ref.key_sum, base->stats.key_sum);
  EXPECT_EQ(ref.inner_rid_sum, base->stats.inner_rid_sum);
  EXPECT_EQ(ref.matches, dist->stats.matches);
  EXPECT_EQ(ref.key_sum, dist->stats.key_sum);
  EXPECT_EQ(ref.inner_rid_sum, dist->stats.inner_rid_sum);
}

TEST(DistributedJoin, AllTransportsProduceIdenticalResults) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  auto workload = GenerateWorkload(spec, 3);
  ASSERT_TRUE(workload.ok());

  for (ClusterConfig cluster : {FdrCluster(3), IpoibCluster(3)}) {
    DistributedJoin join(cluster, SmallJoinConfig());
    auto result = join.Run(workload->inner, workload->outer);
    ASSERT_TRUE(result.ok()) << cluster.name << ": " << result.status().ToString();
    ExpectMatchesTruth(result->stats, workload->truth);
  }
  ClusterConfig one_sided = FdrCluster(3);
  one_sided.transport = TransportKind::kRdmaMemory;
  DistributedJoin join(one_sided, SmallJoinConfig());
  auto result = join.Run(workload->inner, workload->outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesTruth(result->stats, workload->truth);
}

// ---------- Output order pin ----------

/// Order-sensitive FNV-1a 64 over `n` bytes.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= UINT64_C(0x100000001B3);
  }
  return h;
}

/// 3 machines with duplicate inner keys (so hash-chain order shows in the
/// output) and outer keys that partly miss.
Workload DuplicateKeyWorkload(uint32_t tuple_bytes) {
  Workload w;
  Random rng(1234);
  for (uint32_t m = 0; m < 3; ++m) {
    w.inner.chunks.emplace_back(tuple_bytes);
    w.outer.chunks.emplace_back(tuple_bytes);
    for (uint64_t i = 0; i < 2000; ++i) {
      w.inner.chunks[m].Append(rng.Uniform(1500), m * 10000 + i);
    }
    for (uint64_t i = 0; i < 4000; ++i) {
      w.outer.chunks[m].Append(rng.Uniform(2000), m * 10000 + i);
    }
  }
  return w;
}

struct OrderPin {
  TransportKind transport;
  uint32_t tuple_bytes;
  uint64_t hash;
};

// The hashes cover the materialized output chunks, the (inner, outer) rid
// pairs and the serialized RunTrace. They pin the tuple order inside every
// final partition (and with it the hash-chain and output order) and every
// send and task of the trace: a partitioning kernel that reorders tuples, or
// an exchange that ships at other points, moves them.
TEST(DistributedJoin, OutputOrderAndTraceArePinned) {
  const OrderPin pins[] = {
      {TransportKind::kRdmaChannel, 16, UINT64_C(1390243245517260855)},
      {TransportKind::kRdmaChannel, 32, UINT64_C(8488314711805188586)},
      {TransportKind::kRdmaRead, 16, UINT64_C(13269434023527238127)},
      {TransportKind::kRdmaRead, 32, UINT64_C(15988738092530595677)},
  };
  for (const OrderPin& pin : pins) {
    Workload w = DuplicateKeyWorkload(pin.tuple_bytes);
    ClusterConfig cluster = FdrCluster(3);
    cluster.transport = pin.transport;
    JoinConfig jc;
    jc.network_radix_bits = 4;
    jc.scale_up = 1024.0;
    jc.cache_partition_bytes = 128 * 1024;  // 128 B actual: b2 = 6
    jc.local_bits_per_pass = 3;             // two local passes
    jc.materialize_results = true;
    DistributedJoin join(cluster, jc);
    auto result = join.Run(w.inner, w.outer);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    uint64_t h = UINT64_C(0xCBF29CE484222325);
    for (const Relation& chunk : result->output.chunks) {
      h = Fnv1a(h, chunk.data(), chunk.size_bytes());
    }
    for (const auto& [inner_rid, outer_rid] : result->stats.pairs) {
      h = Fnv1a(h, &inner_rid, sizeof(inner_rid));
      h = Fnv1a(h, &outer_rid, sizeof(outer_rid));
    }
    const std::string trace = TraceToJson(result->trace);
    h = Fnv1a(h, trace.data(), trace.size());
    EXPECT_GT(result->stats.matches, 0u);
    EXPECT_EQ(h, pin.hash) << "transport " << static_cast<int>(pin.transport)
                           << ", " << pin.tuple_bytes << " B tuples";
  }
}

}  // namespace
}  // namespace rdmajoin
