#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "join/partitioner.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"
#include "operators/sort_utils.h"
#include "transport/collectives.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

JoinConfig FastConfig(uint32_t radix_bits = 5) {
  JoinConfig jc;
  jc.network_radix_bits = radix_bits;
  jc.scale_up = 512.0;
  return jc;
}

// ---------- Partitioner ----------

TEST(Partitioner, RadixMatchesMask) {
  RadixPartitioner p(4);
  EXPECT_EQ(p.num_partitions(), 16u);
  EXPECT_EQ(p.PartitionOf(0), 0u);
  EXPECT_EQ(p.PartitionOf(0x25), 0x5u);
  EXPECT_EQ(p.PartitionOf(UINT64_MAX), 15u);
}

TEST(Partitioner, RangeRoutesByUpperBound) {
  RangePartitioner p({10, 20, 30});
  EXPECT_EQ(p.num_partitions(), 4u);
  EXPECT_EQ(p.PartitionOf(0), 0u);
  EXPECT_EQ(p.PartitionOf(9), 0u);
  EXPECT_EQ(p.PartitionOf(10), 1u);   // Splitter belongs to the right range.
  EXPECT_EQ(p.PartitionOf(19), 1u);
  EXPECT_EQ(p.PartitionOf(25), 2u);
  EXPECT_EQ(p.PartitionOf(30), 3u);
  EXPECT_EQ(p.PartitionOf(1000), 3u);
}

TEST(Partitioner, RangeWithNoSplittersIsSinglePartition) {
  RangePartitioner p({});
  EXPECT_EQ(p.num_partitions(), 1u);
  EXPECT_EQ(p.PartitionOf(42), 0u);
}

// ---------- Sort utilities ----------

TEST(SortUtils, SortRelationByKeyIsStableAndComplete) {
  Relation r(16);
  Random rng(4);
  for (int i = 0; i < 1000; ++i) r.Append(rng.Next() % 50, i);
  uint64_t key_sum = 0;
  for (uint64_t i = 0; i < r.num_tuples(); ++i) key_sum += r.Key(i);
  SortRelationByKey(&r);
  EXPECT_TRUE(IsSortedByKey(r));
  uint64_t key_sum_after = 0, prev_rid = 0;
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < r.num_tuples(); ++i) {
    key_sum_after += r.Key(i);
    // Stability: rids are increasing within equal-key runs.
    if (i > 0 && r.Key(i) == prev_key) {
      EXPECT_GT(r.Rid(i), prev_rid);
    }
    prev_key = r.Key(i);
    prev_rid = r.Rid(i);
  }
  EXPECT_EQ(key_sum, key_sum_after);
}

TEST(SortUtils, SortPreservesWidePayloads) {
  Relation r(64);
  Random rng(5);
  for (int i = 0; i < 200; ++i) r.Append(rng.Next() % 64, i);
  SortRelationByKey(&r);
  EXPECT_TRUE(IsSortedByKey(r));
  EXPECT_TRUE(r.VerifyPayloads().ok());
}

TEST(SortUtils, MergeJoinMatchesReference) {
  Relation r(16), s(16);
  Random rng(6);
  for (int i = 0; i < 500; ++i) r.Append(rng.Next() % 100, i);
  for (int i = 0; i < 2000; ++i) s.Append(rng.Next() % 150, 1000 + i);
  // Reference counts.
  std::unordered_map<uint64_t, uint64_t> r_counts;
  for (uint64_t i = 0; i < r.num_tuples(); ++i) ++r_counts[r.Key(i)];
  uint64_t expected = 0;
  for (uint64_t i = 0; i < s.num_tuples(); ++i) {
    auto it = r_counts.find(s.Key(i));
    if (it != r_counts.end()) expected += it->second;
  }
  SortRelationByKey(&r);
  SortRelationByKey(&s);
  uint64_t matches = 0;
  MergeJoinSorted(r, s, [&](uint64_t, uint64_t, uint64_t) { ++matches; });
  EXPECT_EQ(matches, expected);
}

TEST(SortUtils, MergeJoinHandlesEmptySides) {
  Relation r(16), s(16);
  r.Append(1, 1);
  uint64_t matches = 0;
  MergeJoinSorted(r, s, [&](uint64_t, uint64_t, uint64_t) { ++matches; });
  MergeJoinSorted(s, r, [&](uint64_t, uint64_t, uint64_t) { ++matches; });
  EXPECT_EQ(matches, 0u);
}

TEST(SortUtils, SampleKeysPadsShortChunks) {
  Relation r(16);
  r.Append(5, 0);
  auto samples = SampleKeys(r, 8);
  ASSERT_EQ(samples.size(), 8u);
  for (uint64_t v : samples) EXPECT_EQ(v, 5u);
  Relation empty(16);
  samples = SampleKeys(empty, 4);
  for (uint64_t v : samples) EXPECT_EQ(v, UINT64_MAX);
}

TEST(SortUtils, SplittersAreStrictlyIncreasingQuantiles) {
  std::vector<uint64_t> samples;
  for (uint64_t i = 0; i < 1000; ++i) samples.push_back(i);
  auto splitters = SplittersFromSamples(samples, 9);
  ASSERT_EQ(splitters.size(), 9u);
  for (size_t i = 1; i < splitters.size(); ++i) {
    EXPECT_GT(splitters[i], splitters[i - 1]);
  }
  // Roughly the deciles.
  EXPECT_NEAR(static_cast<double>(splitters[4]), 500.0, 10.0);
}

TEST(SortUtils, SplittersDedupeRepeatedSamples) {
  std::vector<uint64_t> samples(100, 7);
  auto splitters = SplittersFromSamples(samples, 9);
  EXPECT_EQ(splitters.size(), 1u);
  EXPECT_EQ(splitters[0], 7u);
}

// ---------- Distributed aggregation ----------

TEST(DistributedAggregate, CountsAndSumsAreConserved) {
  WorkloadSpec spec;
  spec.inner_tuples = 5000;   // 5000 distinct keys...
  spec.outer_tuples = 40000;  // ...each appearing 8 times in the outer input.
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  DistributedAggregate agg(QdrCluster(4), FastConfig());
  auto result = agg.Run(w->outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.groups, spec.inner_tuples);
  EXPECT_EQ(result->stats.total_count, spec.outer_tuples);
  // Sum of rids: outer rids are 0..n-1.
  EXPECT_EQ(result->stats.value_sum,
            spec.outer_tuples * (spec.outer_tuples - 1) / 2);
  // Sum of distinct keys 0..k-1.
  EXPECT_EQ(result->stats.group_key_sum,
            spec.inner_tuples * (spec.inner_tuples - 1) / 2);
  EXPECT_GT(result->times.TotalSeconds(), 0.0);
  EXPECT_EQ(result->times.local_partition_seconds, 0.0);  // No second pass.
}

TEST(DistributedAggregate, WorksAcrossTransportsAndSkew) {
  WorkloadSpec spec;
  spec.inner_tuples = 1 << 12;
  spec.outer_tuples = 1 << 15;
  spec.zipf_theta = 1.2;
  auto w = GenerateWorkload(spec, 3);
  ASSERT_TRUE(w.ok());
  // Ground truth for the skewed input.
  uint64_t value_sum = 0;
  std::unordered_map<uint64_t, bool> distinct;
  uint64_t key_sum = 0;
  for (const auto& chunk : w->outer.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      value_sum += chunk.Rid(i);
      if (!distinct[chunk.Key(i)]) {
        distinct[chunk.Key(i)] = true;
        key_sum += chunk.Key(i);
      }
    }
  }
  for (TransportKind transport :
       {TransportKind::kRdmaChannel, TransportKind::kRdmaMemory, TransportKind::kTcp}) {
    ClusterConfig cluster = FdrCluster(3);
    cluster.transport = transport;
    JoinConfig jc = FastConfig();
    jc.assignment = AssignmentPolicy::kSkewAware;
    DistributedAggregate agg(cluster, jc);
    auto result = agg.Run(w->outer);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stats.groups, distinct.size());
    EXPECT_EQ(result->stats.total_count, spec.outer_tuples);
    EXPECT_EQ(result->stats.value_sum, value_sum);
    EXPECT_EQ(result->stats.group_key_sum, key_sum);
  }
}

TEST(DistributedAggregate, MaterializedOutputIsByteIdenticalAcrossReruns) {
  // Regression for the determinism contract (docs/correctness.md): group
  // emission used to iterate the per-partition unordered_map directly, so the
  // materialized output depended on hash-table iteration order. The output
  // must now be sorted by key within each partition and byte-identical when
  // the same run is repeated.
  WorkloadSpec spec;
  spec.inner_tuples = 3000;
  spec.outer_tuples = 12000;
  spec.zipf_theta = 1.05;
  auto w = GenerateWorkload(spec, 3);
  ASSERT_TRUE(w.ok());
  JoinConfig jc = FastConfig();
  jc.materialize_results = true;
  auto run = [&]() { return DistributedAggregate(QdrCluster(3), jc).Run(w->outer); };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->output.chunks.size(), b->output.chunks.size());
  for (size_t m = 0; m < a->output.chunks.size(); ++m) {
    const Relation& ca = a->output.chunks[m];
    const Relation& cb = b->output.chunks[m];
    ASSERT_EQ(ca.num_tuples(), cb.num_tuples());
    EXPECT_EQ(std::memcmp(ca.data(), cb.data(), ca.size_bytes()), 0)
        << "machine " << m;
  }
}

TEST(DistributedAggregate, SingleMachineNeedsNoNetwork) {
  WorkloadSpec spec;
  spec.inner_tuples = 1000;
  spec.outer_tuples = 4000;
  auto w = GenerateWorkload(spec, 1);
  DistributedAggregate agg(FdrCluster(1), FastConfig());
  auto result = agg.Run(w->outer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->net.messages_sent, 0u);
  EXPECT_EQ(result->stats.groups, 1000u);
}

// ---------- Distributed sort-merge join ----------

TEST(SortMergeJoin, MatchesGroundTruthAndHashJoin) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 60000;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  DistributedSortMergeJoin smj(QdrCluster(4), FastConfig());
  auto sm = smj.Run(w->inner, w->outer);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  EXPECT_EQ(sm->stats.matches, w->truth.expected_matches);
  EXPECT_EQ(sm->stats.key_sum, w->truth.expected_key_sum);
  EXPECT_EQ(sm->stats.inner_rid_sum, w->truth.expected_inner_rid_sum);

  DistributedJoin hj(QdrCluster(4), FastConfig());
  auto hash = hj.Run(w->inner, w->outer);
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(hash->stats.matches, sm->stats.matches);
  EXPECT_EQ(hash->stats.key_sum, sm->stats.key_sum);

  // One all-gather carries both relations' 32 histogram counts, plus the
  // sort-merge join's 256 splitter samples per machine.
  const ClusterConfig qdr = QdrCluster(4);
  auto exchange_seconds = [&](uint64_t words) {
    return CollectiveNetwork::ExchangeSeconds(4, words * sizeof(uint64_t),
                                              qdr.PortBytesPerSec(),
                                              qdr.fabric.base_latency_seconds);
  };
  for (uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(hash->trace.machines[m].histogram_exchange_seconds,
              exchange_seconds(2 * 32));
    EXPECT_EQ(sm->trace.machines[m].histogram_exchange_seconds,
              exchange_seconds(2 * 32 + 256));
  }
}

TEST(SortMergeJoin, RadixHashJoinWinsOnCalibratedCosts) {
  // The paper (and [3]) pick the radix hash join because sorting is slower
  // than radix partitioning; the calibrated cost model reproduces that.
  WorkloadSpec spec;
  spec.inner_tuples = 100000;
  spec.outer_tuples = 100000;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  JoinConfig jc;
  jc.network_radix_bits = 8;
  jc.scale_up = 2048.0;
  auto hash = DistributedJoin(FdrCluster(4), jc).Run(w->inner, w->outer);
  auto sm = DistributedSortMergeJoin(FdrCluster(4), jc).Run(w->inner, w->outer);
  ASSERT_TRUE(hash.ok() && sm.ok());
  EXPECT_LT(hash->times.TotalSeconds(), sm->times.TotalSeconds());
  // Both move (roughly) the same volume over the network.
  EXPECT_NEAR(hash->net.virtual_wire_bytes, sm->net.virtual_wire_bytes,
              0.15 * hash->net.virtual_wire_bytes);
}

TEST(SortMergeJoin, SkewedOuterStillVerifies) {
  WorkloadSpec spec;
  spec.inner_tuples = 1 << 13;
  spec.outer_tuples = 1 << 16;
  spec.zipf_theta = 1.05;
  auto w = GenerateWorkload(spec, 3);
  ASSERT_TRUE(w.ok());
  JoinConfig jc = FastConfig();
  jc.assignment = AssignmentPolicy::kSkewAware;
  DistributedSortMergeJoin smj(QdrCluster(3), jc);
  auto result = smj.Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.matches, w->truth.expected_matches);
  EXPECT_EQ(result->stats.key_sum, w->truth.expected_key_sum);
}

TEST(SortMergeJoin, WideTuples) {
  WorkloadSpec spec;
  spec.inner_tuples = 5000;
  spec.outer_tuples = 10000;
  spec.tuple_bytes = 32;
  auto w = GenerateWorkload(spec, 2);
  DistributedSortMergeJoin smj(FdrCluster(2), FastConfig());
  auto result = smj.Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.matches, w->truth.expected_matches);
}

// ---------- Work stealing ----------

TEST(WorkStealing, ImprovesHeavySkewAndPreservesResults) {
  WorkloadSpec spec;
  spec.inner_tuples = 1 << 14;
  spec.outer_tuples = 1 << 17;
  spec.zipf_theta = 1.20;
  auto w = GenerateWorkload(spec, 8);
  ASSERT_TRUE(w.ok());
  JoinConfig base = FastConfig();
  base.assignment = AssignmentPolicy::kSkewAware;
  base.skew_split_factor = 2.0;
  JoinConfig stealing = base;
  stealing.enable_work_stealing = true;
  auto without = DistributedJoin(QdrCluster(8), base).Run(w->inner, w->outer);
  auto with = DistributedJoin(QdrCluster(8), stealing).Run(w->inner, w->outer);
  ASSERT_TRUE(without.ok() && with.ok());
  EXPECT_EQ(with->stats.matches, without->stats.matches);
  EXPECT_EQ(with->stats.key_sum, without->stats.key_sum);
  EXPECT_LE(with->times.build_probe_seconds,
            without->times.build_probe_seconds + 1e-12);
  // Only the build/probe phase is affected.
  EXPECT_NEAR(with->times.network_partition_seconds,
              without->times.network_partition_seconds, 1e-12);
}

TEST(WorkStealing, NoOpOnBalancedWorkload) {
  WorkloadSpec spec;
  spec.inner_tuples = 40000;
  spec.outer_tuples = 40000;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  JoinConfig stealing = FastConfig();
  stealing.enable_work_stealing = true;
  auto result = DistributedJoin(QdrCluster(4), stealing).Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());
  uint64_t stolen = 0;
  for (const auto& mt : result->trace.machines) stolen += mt.stolen_in_bytes;
  // A uniform workload should move little or nothing.
  EXPECT_LT(static_cast<double>(stolen),
            0.05 * static_cast<double>(spec.outer_tuples * 16));
}

// ---------- Materialization ----------

TEST(Materialization, ChargesOutputWritesToBuildProbe) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 80000;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  JoinConfig pipeline = FastConfig();
  JoinConfig materialize = FastConfig();
  materialize.materialize_results = true;
  for (const bool sort_merge : {false, true}) {
    SCOPED_TRACE(sort_merge ? "sortmerge" : "hashjoin");
    auto run = [&](const JoinConfig& jc) {
      return sort_merge ? DistributedSortMergeJoin(QdrCluster(4), jc).Run(w->inner, w->outer)
                        : DistributedJoin(QdrCluster(4), jc).Run(w->inner, w->outer);
    };
    auto a = run(pipeline);
    auto b = run(materialize);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_GT(b->times.build_probe_seconds, a->times.build_probe_seconds);
    EXPECT_NEAR(a->times.network_partition_seconds, b->times.network_partition_seconds,
                1e-12);
    EXPECT_EQ(b->stats.pairs.size(), spec.outer_tuples);
    uint64_t materialized = 0;
    for (const auto& mt : b->trace.machines) materialized += mt.materialized_bytes;
    EXPECT_EQ(materialized, spec.outer_tuples * 16);
    // One <join_key, inner_rid> tuple per match, on the machine that made it.
    EXPECT_TRUE(a->output.chunks.empty());
    ASSERT_EQ(b->output.chunks.size(), 4u);
    for (uint32_t m = 0; m < 4; ++m) {
      const Relation& chunk = b->output.chunks[m];
      EXPECT_EQ(chunk.size_bytes(), b->trace.machines[m].materialized_bytes);
      for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
        ASSERT_EQ(chunk.Rid(i), 2 * chunk.Key(i) + 1) << "machine " << m;
      }
    }
  }
}

}  // namespace
}  // namespace rdmajoin
