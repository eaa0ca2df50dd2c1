#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/zipf.h"
#include "workload/relation.h"

namespace rdmajoin {
namespace {

TEST(Relation, BasicAccessors) {
  Relation r(16);
  EXPECT_EQ(r.tuple_bytes(), 16u);
  EXPECT_TRUE(r.empty());
  r.Append(7, 15);
  r.Append(9, 19);
  EXPECT_EQ(r.num_tuples(), 2u);
  EXPECT_EQ(r.size_bytes(), 32u);
  EXPECT_EQ(r.Key(0), 7u);
  EXPECT_EQ(r.Rid(0), 15u);
  EXPECT_EQ(r.Key(1), 9u);
  EXPECT_EQ(r.Rid(1), 19u);
}

TEST(Relation, WideTuplePayloadPattern) {
  for (uint32_t width : {32u, 64u}) {
    Relation r(width);
    r.Resize(10);
    for (uint64_t i = 0; i < 10; ++i) r.SetTuple(i, i * 13, i);
    EXPECT_TRUE(r.VerifyPayloads().ok()) << "width " << width;
    // Corrupt one payload byte and expect detection.
    r.TupleAt(5)[width - 1] ^= 0xFF;
    EXPECT_FALSE(r.VerifyPayloads().ok()) << "width " << width;
  }
}

TEST(Relation, AppendRawCopiesTuples) {
  Relation a(16), b(16);
  a.Append(1, 2);
  a.Append(3, 4);
  b.AppendRaw(a.data(), 2);
  EXPECT_EQ(b.num_tuples(), 2u);
  EXPECT_EQ(b.Key(1), 3u);
  EXPECT_EQ(b.Rid(1), 4u);
}

TEST(WorkloadSpec, Validation) {
  WorkloadSpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  spec.inner_tuples = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec{};
  spec.outer_tuples = spec.inner_tuples - 1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec{};
  spec.tuple_bytes = 20;  // not a multiple of 8
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec{};
  spec.tuple_bytes = 8;  // too narrow
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec{};
  spec.zipf_theta = -1;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(CheckWorkloadFitsMemory, ComparesTheLargestMachineShareWithMemory) {
  WorkloadSpec spec;
  spec.inner_tuples = 7;
  spec.outer_tuples = 10;
  // Over 3 machines machine 0 holds 3 + 4 tuples of 16 B: 112 bytes, and
  // 448 at scale 4.
  EXPECT_TRUE(CheckWorkloadFitsMemory(spec, 3, 1.0, 112).ok());
  const Status over = CheckWorkloadFitsMemory(spec, 3, 1.0, 111);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("112 bytes"), std::string::npos) << over.message();
  EXPECT_NE(over.message().find("111"), std::string::npos) << over.message();
  EXPECT_TRUE(CheckWorkloadFitsMemory(spec, 3, 4.0, 448).ok());
  EXPECT_FALSE(CheckWorkloadFitsMemory(spec, 3, 4.0, 447).ok());
  spec.tuple_bytes = 32;
  EXPECT_FALSE(CheckWorkloadFitsMemory(spec, 3, 1.0, 223).ok());
  EXPECT_TRUE(CheckWorkloadFitsMemory(spec, 3, 1.0, 224).ok());
  EXPECT_EQ(CheckWorkloadFitsMemory(spec, 0, 1.0, 1 << 20).code(),
            StatusCode::kInvalidArgument);
  // A trillion tuples are judged without being allocated.
  spec.inner_tuples = spec.outer_tuples = 1000000000000ull;
  EXPECT_EQ(CheckWorkloadFitsMemory(spec, 2, 1.0, 128000000000ull).code(),
            StatusCode::kResourceExhausted);
}

TEST(GenerateWorkload, InnerKeysAreDistinctPermutation) {
  WorkloadSpec spec;
  spec.inner_tuples = 10000;
  spec.outer_tuples = 10000;
  auto w = GenerateWorkload(spec, 3);
  ASSERT_TRUE(w.ok());
  std::set<uint64_t> keys;
  for (const auto& chunk : w->inner.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      EXPECT_LT(chunk.Key(i), spec.inner_tuples);
      EXPECT_EQ(chunk.Rid(i), InnerRidForKey(chunk.Key(i)));
      keys.insert(chunk.Key(i));
    }
  }
  EXPECT_EQ(keys.size(), spec.inner_tuples);
}

TEST(GenerateWorkload, UniformOuterHasExactMatchCounts) {
  WorkloadSpec spec;
  spec.inner_tuples = 1000;
  spec.outer_tuples = 4000;  // ratio 1:4
  auto w = GenerateWorkload(spec, 2);
  ASSERT_TRUE(w.ok());
  std::unordered_map<uint64_t, uint64_t> counts;
  for (const auto& chunk : w->outer.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) ++counts[chunk.Key(i)];
  }
  ASSERT_EQ(counts.size(), spec.inner_tuples);
  // lint: order-insensitive(independent per-key equality checks; no output order)
  for (const auto& [key, n] : counts) EXPECT_EQ(n, 4u) << "key " << key;
}

TEST(GenerateWorkload, GroundTruthMatchesBruteForce) {
  WorkloadSpec spec;
  spec.inner_tuples = 500;
  spec.outer_tuples = 2000;
  spec.seed = 3;
  auto w = GenerateWorkload(spec, 2);
  ASSERT_TRUE(w.ok());
  uint64_t key_sum = 0, rid_sum = 0, n = 0;
  for (const auto& chunk : w->outer.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      ++n;
      key_sum += chunk.Key(i);
      rid_sum += InnerRidForKey(chunk.Key(i));
    }
  }
  EXPECT_EQ(w->truth.expected_matches, n);
  EXPECT_EQ(w->truth.expected_key_sum, key_sum);
  EXPECT_EQ(w->truth.expected_inner_rid_sum, rid_sum);
}

TEST(GenerateWorkload, FragmentsEvenly) {
  WorkloadSpec spec;
  spec.inner_tuples = 1003;  // Not divisible by 4.
  spec.outer_tuples = 2005;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->inner.total_tuples(), spec.inner_tuples);
  EXPECT_EQ(w->outer.total_tuples(), spec.outer_tuples);
  for (const auto& chunk : w->inner.chunks) {
    EXPECT_GE(chunk.num_tuples(), spec.inner_tuples / 4);
    EXPECT_LE(chunk.num_tuples(), spec.inner_tuples / 4 + 1);
  }
}

TEST(GenerateWorkload, DeterministicForSameSeed) {
  WorkloadSpec spec;
  spec.inner_tuples = 2000;
  spec.outer_tuples = 4000;
  spec.seed = 11;
  auto a = GenerateWorkload(spec, 2);
  auto b = GenerateWorkload(spec, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->truth.expected_key_sum, b->truth.expected_key_sum);
  for (size_t m = 0; m < 2; ++m) {
    ASSERT_EQ(a->inner.chunks[m].num_tuples(), b->inner.chunks[m].num_tuples());
    EXPECT_EQ(a->inner.chunks[m].Key(0), b->inner.chunks[m].Key(0));
  }
  spec.seed = 12;
  auto c = GenerateWorkload(spec, 2);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->outer.chunks[0].Key(0), c->outer.chunks[0].Key(0));
}

TEST(GenerateWorkload, ZipfOuterIsSkewed) {
  WorkloadSpec spec;
  spec.inner_tuples = 1 << 14;
  spec.outer_tuples = 1 << 17;
  spec.zipf_theta = 1.20;
  auto w = GenerateWorkload(spec, 2);
  ASSERT_TRUE(w.ok());
  std::unordered_map<uint64_t, uint64_t> counts;
  uint64_t max_count = 0;
  for (const auto& chunk : w->outer.chunks) {
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      EXPECT_LT(chunk.Key(i), spec.inner_tuples);
      max_count = std::max(max_count, ++counts[chunk.Key(i)]);
    }
  }
  // Rank 0 of a Zipf(1.2) over 16K values should hold >> 1/16K of the mass.
  EXPECT_GT(max_count, spec.outer_tuples / 100);
}

TEST(ZipfGenerator, RespectsDomainAndMonotoneFrequency) {
  ZipfGenerator zipf(100, 1.05, 9);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.Next()];
  // Frequency of rank 0 exceeds rank 10 exceeds rank 90.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

// Statistical regression for the rejection-inversion sampler: for a small
// domain the exact probabilities P(k) = (k+1)^-theta / H_n,theta are cheap to
// tabulate, so the empirical distribution can be checked against them
// directly. Each per-rank count is binomial; a 6-sigma band (plus a one-count
// floor for the tiny-expectation tail) keeps the test deterministic for the
// fixed seeds yet tight enough to catch an off-by-half in the envelope or a
// wrong acceptance test. theta = 0 (uniform) and theta = 1 (the harmonic
// special case of the envelope integral) are included on purpose.
TEST(ZipfGenerator, MatchesExactCdfOnSmallDomains) {
  const uint64_t n = 50;
  const int samples = 400000;
  for (double theta : {0.0, 0.5, 1.0, 1.05, 1.2}) {
    ZipfGenerator zipf(n, theta, /*seed=*/1234);
    std::vector<uint64_t> counts(n, 0);
    for (int i = 0; i < samples; ++i) {
      const uint64_t k = zipf.Next();
      ASSERT_LT(k, n);
      ++counts[k];
    }
    std::vector<double> p(n);
    double norm = 0.0;
    for (uint64_t k = 0; k < n; ++k) {
      p[k] = std::pow(static_cast<double>(k + 1), -theta);
      norm += p[k];
    }
    for (uint64_t k = 0; k < n; ++k) {
      p[k] /= norm;
      const double expected = p[k] * samples;
      const double sigma = std::sqrt(expected * (1.0 - p[k]));
      EXPECT_NEAR(static_cast<double>(counts[k]), expected, 6.0 * sigma + 1.0)
          << "theta=" << theta << " rank=" << k;
    }
  }
}

TEST(ZipfGenerator, ThetaZeroIsUniform) {
  // Before the rejection-inversion rewrite the constructor asserted
  // theta > 0; the uniform end of the Fig. 8 skew sweep must be accepted.
  ZipfGenerator zipf(8, 0.0, 3);
  std::vector<uint64_t> counts(8, 0);
  for (int i = 0; i < 80000; ++i) ++counts[zipf.Next()];
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]), 10000.0, 600.0) << "rank " << k;
  }
}

TEST(ZipfGenerator, HigherThetaIsMoreSkewed) {
  ZipfGenerator low(1000, 1.05, 5);
  ZipfGenerator high(1000, 1.20, 5);
  uint64_t low_rank0 = 0, high_rank0 = 0;
  for (int i = 0; i < 100000; ++i) {
    if (low.Next() == 0) ++low_rank0;
    if (high.Next() == 0) ++high_rank0;
  }
  EXPECT_GT(high_rank0, low_rank0);
}

}  // namespace
}  // namespace rdmajoin
