#include "operators/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cluster/presets.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

PlanContext SmallContext(uint32_t machines = 4) {
  PlanContext ctx;
  ctx.cluster = FdrCluster(machines);
  ctx.config.network_radix_bits = 5;
  ctx.config.scale_up = 256.0;
  return ctx;
}

TEST(Plan, ScanReturnsInputUnchanged) {
  WorkloadSpec spec;
  spec.inner_tuples = 4000;
  spec.outer_tuples = 4000;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  auto plan = Scan(&w->inner);
  auto out = plan->Execute(SmallContext());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows, spec.inner_tuples);
  EXPECT_EQ(out->seconds, 0.0);
  EXPECT_EQ(out->relation.total_tuples(), spec.inner_tuples);
}

TEST(Plan, ScanRejectsWrongFragmentation) {
  WorkloadSpec spec;
  spec.inner_tuples = 1000;
  spec.outer_tuples = 1000;
  auto w = GenerateWorkload(spec, 2);
  auto plan = Scan(&w->inner);
  EXPECT_FALSE(plan->Execute(SmallContext(4)).ok());
}

TEST(Plan, FilterKeepsMatchingTuplesAndChargesScan) {
  WorkloadSpec spec;
  spec.inner_tuples = 8000;
  spec.outer_tuples = 8000;
  auto w = GenerateWorkload(spec, 4);
  auto plan = Filter(Scan(&w->inner),
                     [](uint64_t key, uint64_t) { return key % 2 == 0; });
  auto out = plan->Execute(SmallContext());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows, spec.inner_tuples / 2);  // Keys are a permutation.
  EXPECT_GT(out->seconds, 0.0);
  for (const auto& chunk : out->relation.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      EXPECT_EQ(chunk.Key(i) % 2, 0u);
    }
  }
}

TEST(Plan, MapRewritesTuples) {
  WorkloadSpec spec;
  spec.inner_tuples = 1000;
  spec.outer_tuples = 1000;
  auto w = GenerateWorkload(spec, 2);
  auto plan = Map(Scan(&w->inner), [](uint64_t key, uint64_t rid) {
    return std::make_pair(key + 1, rid * 2);
  });
  auto out = plan->Execute(SmallContext(2));
  ASSERT_TRUE(out.ok());
  uint64_t key_sum = 0;
  for (const auto& chunk : out->relation.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) key_sum += chunk.Key(i);
  }
  // Sum of (k+1) over permutation of [0,1000) = 0..999 sum + 1000.
  EXPECT_EQ(key_sum, 1000u * 999 / 2 + 1000);
}

TEST(Plan, HashJoinProducesKeyedOutput) {
  WorkloadSpec spec;
  spec.inner_tuples = 5000;
  spec.outer_tuples = 15000;
  auto w = GenerateWorkload(spec, 4);
  auto plan = HashJoin(Scan(&w->inner), Scan(&w->outer));
  auto out = plan->Execute(SmallContext());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rows, w->truth.expected_matches);
  EXPECT_EQ(out->relation.total_tuples(), w->truth.expected_matches);
  EXPECT_GT(out->seconds, 0.0);
  uint64_t key_sum = 0;
  for (const auto& chunk : out->relation.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      key_sum += chunk.Key(i);
      EXPECT_EQ(chunk.Rid(i), InnerRidForKey(chunk.Key(i)));
    }
  }
  EXPECT_EQ(key_sum, w->truth.expected_key_sum);
}

TEST(Plan, FullPipelineFilterJoinAggregate) {
  WorkloadSpec spec;
  spec.inner_tuples = 4000;
  spec.outer_tuples = 16000;
  auto w = GenerateWorkload(spec, 4);
  // Keep only even join keys on the inner side, join, then group the result.
  auto plan = Aggregate(HashJoin(
      Filter(Scan(&w->inner, "scan products"),
             [](uint64_t key, uint64_t) { return key % 2 == 0; }, "even keys"),
      Scan(&w->outer, "scan clicks"), "join"));
  auto out = plan->Execute(SmallContext());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Half the inner keys survive; each outer key appears 4 times -> half the
  // outer tuples match; groups = surviving inner keys.
  EXPECT_EQ(out->rows, spec.inner_tuples / 2);
  EXPECT_EQ(out->relation.total_tuples(), spec.inner_tuples / 2);
  EXPECT_GT(out->seconds, 0.0);
}

TEST(Plan, SortMergeJoinVariantAgrees) {
  WorkloadSpec spec;
  spec.inner_tuples = 4000;
  spec.outer_tuples = 8000;
  auto w = GenerateWorkload(spec, 2);
  auto hash = HashJoin(Scan(&w->inner), Scan(&w->outer));
  auto sm = SortMergeJoin(Scan(&w->inner), Scan(&w->outer));
  const PlanContext ctx = SmallContext(2);
  auto h = hash->Execute(ctx);
  auto s = sm->Execute(ctx);
  ASSERT_TRUE(h.ok() && s.ok());
  EXPECT_EQ(h->rows, s->rows);
  // Both produce one <join_key, inner_rid> tuple per match: the same
  // multiset, whatever machine or order each tuple landed in.
  auto sorted_tuples = [](const DistributedRelation& rel) {
    std::vector<std::pair<uint64_t, uint64_t>> tuples;
    for (const Relation& chunk : rel.chunks) {
      for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
        tuples.emplace_back(chunk.Key(i), chunk.Rid(i));
      }
    }
    std::sort(tuples.begin(), tuples.end());
    return tuples;
  };
  const auto hash_tuples = sorted_tuples(h->relation);
  EXPECT_EQ(hash_tuples.size(), spec.outer_tuples);
  EXPECT_EQ(hash_tuples, sorted_tuples(s->relation));
}

TEST(Plan, ExplainRendersTree) {
  WorkloadSpec spec;
  spec.inner_tuples = 100;
  spec.outer_tuples = 100;
  auto w = GenerateWorkload(spec, 2);
  auto plan = Aggregate(
      HashJoin(Scan(&w->inner, "scan R"), Scan(&w->outer, "scan S"), "join R*S"),
      "group by key");
  const std::string explain = ExplainPlan(*plan);
  EXPECT_NE(explain.find("group by key\n  join R*S\n    scan R\n    scan S"),
            std::string::npos);
}

}  // namespace
}  // namespace rdmajoin
