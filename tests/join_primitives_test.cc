#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "join/assignment.h"
#include "join/hash_table.h"
#include "join/histogram.h"
#include "join/local_partition.h"
#include "util/bit_ops.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

// ---------- Histogram ----------

TEST(Histogram, CountsSumToInput) {
  WorkloadSpec spec;
  spec.inner_tuples = 5000;
  spec.outer_tuples = 5000;
  auto w = GenerateWorkload(spec, 3);
  ASSERT_TRUE(w.ok());
  auto h = ComputeHistograms(w->inner, 6);
  EXPECT_EQ(h.num_partitions(), 64u);
  EXPECT_EQ(h.total_tuples(), spec.inner_tuples);
  // Per-machine histograms sum to the global histogram.
  for (uint32_t p = 0; p < h.num_partitions(); ++p) {
    uint64_t sum = 0;
    for (const auto& m : h.per_machine) sum += m[p];
    EXPECT_EQ(sum, h.global[p]);
  }
}

TEST(Histogram, DensePermutationKeysPartitionEvenly) {
  // Inner keys are a permutation of [0, n): with n a multiple of 2^bits the
  // radix histogram is exactly uniform.
  WorkloadSpec spec;
  spec.inner_tuples = 1 << 12;
  spec.outer_tuples = 1 << 12;
  auto w = GenerateWorkload(spec, 2);
  auto h = ComputeHistograms(w->inner, 4);
  for (uint32_t p = 0; p < 16; ++p) EXPECT_EQ(h.global[p], (1u << 12) / 16);
}

TEST(Histogram, MatchesManualCountOnTinyInput) {
  DistributedRelation rel;
  Relation chunk(16);
  for (uint64_t key : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) chunk.Append(key, key);
  rel.chunks.push_back(std::move(chunk));
  auto h = ComputeHistograms(rel, 2);
  for (uint32_t p = 0; p < 4; ++p) EXPECT_EQ(h.global[p], 2u);
}

// ---------- Assignment ----------

TEST(Assignment, RoundRobinCyclesMachines) {
  auto a = RoundRobinAssignment(8, 3);
  EXPECT_EQ(a, (std::vector<uint32_t>{0, 1, 2, 0, 1, 2, 0, 1}));
}

TEST(Assignment, RoundRobinBalancesPartitionCounts) {
  auto a = RoundRobinAssignment(1024, 10);
  std::vector<int> counts(10, 0);
  for (uint32_t m : a) ++counts[m];
  // lint: order-insensitive(per-element bound checks on a vector; name collision)
  for (int c : counts) {
    EXPECT_GE(c, 102);
    EXPECT_LE(c, 103);
  }
}

TEST(Assignment, SkewAwarePutsLargestPartitionsOnDistinctMachines) {
  // Counts: partition 0 huge, partition 5 second, rest small.
  std::vector<uint64_t> counts(8, 10);
  counts[0] = 10000;
  counts[5] = 9000;
  auto a = SkewAwareAssignment(counts, 4);
  EXPECT_NE(a[0], a[5]);
}

TEST(Assignment, SkewAwareBalancesZipfLoadBetterThanRoundRobin) {
  // Build a Zipf-ish count vector where heavy partitions cluster at low ids
  // (adversarial for round-robin when num_machines divides their spacing).
  std::vector<uint64_t> counts(64, 100);
  counts[0] = 50000;
  counts[4] = 30000;  // Same machine as 0 under round-robin with 4 machines.
  counts[8] = 20000;
  auto rr = RoundRobinAssignment(64, 4);
  auto sa = SkewAwareAssignment(counts, 4);
  auto max_load = [&](const std::vector<uint32_t>& assign) {
    auto load = AssignedLoad(counts, assign, 4);
    return *std::max_element(load.begin(), load.end());
  };
  EXPECT_LT(max_load(sa), max_load(rr));
}

TEST(Assignment, AssignedLoadSumsToTotal) {
  std::vector<uint64_t> counts{5, 10, 15, 20, 25};
  auto a = RoundRobinAssignment(5, 2);
  auto load = AssignedLoad(counts, a, 2);
  EXPECT_EQ(load[0] + load[1], 75u);
}

// ---------- Hash table ----------

TEST(HashTable, FindsAllAndOnlyMatches) {
  Relation r(16);
  for (uint64_t k = 0; k < 100; ++k) r.Append(k, k * 2 + 1);
  HashTable table(r);
  EXPECT_EQ(table.num_entries(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    uint64_t found = 0, rid = 0;
    table.Probe(k, [&](uint64_t x) {
      ++found;
      rid = x;
    });
    EXPECT_EQ(found, 1u);
    EXPECT_EQ(rid, k * 2 + 1);
  }
  EXPECT_EQ(table.CountMatches(1000), 0u);
}

TEST(HashTable, HandlesDuplicateKeys) {
  Relation r(16);
  for (int i = 0; i < 5; ++i) r.Append(42, 100 + i);
  r.Append(7, 1);
  HashTable table(r);
  EXPECT_EQ(table.CountMatches(42), 5u);
  EXPECT_EQ(table.CountMatches(7), 1u);
  uint64_t rid_sum = 0;
  table.Probe(42, [&](uint64_t rid) { rid_sum += rid; });
  EXPECT_EQ(rid_sum, 100u + 101 + 102 + 103 + 104);
}

TEST(HashTable, EmptyTableProbesSafely) {
  Relation r(16);
  HashTable table(r);
  EXPECT_EQ(table.num_entries(), 0u);
  EXPECT_EQ(table.CountMatches(1), 0u);
}

TEST(HashTable, RangeConstructorBuildsSubset) {
  Relation r(16);
  for (uint64_t k = 0; k < 10; ++k) r.Append(k, k);
  HashTable table(r, 3, 7);  // keys 3..6
  EXPECT_EQ(table.num_entries(), 4u);
  EXPECT_EQ(table.CountMatches(2), 0u);
  EXPECT_EQ(table.CountMatches(3), 1u);
  EXPECT_EQ(table.CountMatches(6), 1u);
  EXPECT_EQ(table.CountMatches(7), 0u);
}

TEST(HashTable, BucketsArePowerOfTwoAndCoverEntries) {
  Relation r(16);
  for (uint64_t k = 0; k < 1000; ++k) r.Append(k * 7919, k);
  HashTable table(r);
  EXPECT_TRUE(IsPowerOfTwo(table.num_buckets()));
  EXPECT_GE(table.num_buckets(), table.num_entries());
}

// Radix partitioning with b1 = b2 = 10 hands the build keys that share
// their low 20 bits; their buckets must still spread them. A table that
// bucketed by the low bits of the hash put all of them in one chain, so a
// probe walked the whole partition.
TEST(HashTable, RadixClusteredKeysKeepChainsShort) {
  constexpr uint64_t kKeys = 2048;
  constexpr uint64_t kLowBits = 0x5A5A5;
  Relation r(16);
  Random rng(17);
  std::vector<uint64_t> highs(kKeys);
  std::iota(highs.begin(), highs.end(), 0);
  for (uint64_t i = kKeys; i > 1; --i) std::swap(highs[i - 1], highs[rng.Uniform(i)]);
  for (uint64_t j : highs) {
    r.Append((j << 20) | kLowBits, j);
    r.Append((j << 20) | 3, j);  // Another partition's key.
  }
  RadixPartitions parts;
  RadixPartition(r, 0, 20, 10, &parts);
  ASSERT_EQ(parts.end(kLowBits) - parts.begin(kLowBits), kKeys);
  const HashTable table(parts.tuples, parts.begin(kLowBits), parts.end(kLowBits));
  uint64_t visited = 0;
  for (uint64_t j = 0; j < kKeys; ++j) {
    const uint64_t key = (j << 20) | kLowBits;
    ASSERT_EQ(table.CountMatches(key), 1u) << "key " << key;
    visited += table.ChainLength(key);
  }
  EXPECT_LE(visited, 2 * kKeys);
}

// Duplicated keys that share their low bits: a probe emits their rids in
// reverse insertion order whatever bucket they land in, so the join's
// materialized pairs do not depend on the bucket function.
TEST(HashTable, DuplicateClusteredKeysEmitPinnedRidOrder) {
  Relation r(16);
  for (uint64_t rep = 0; rep < 3; ++rep) {
    for (uint64_t j = 0; j < 64; ++j) r.Append((j << 20) | 7, rep * 1000 + j);
  }
  const HashTable table(r);
  for (uint64_t j : {0u, 5u, 63u}) {
    std::vector<uint64_t> rids;
    table.Probe((j << 20) | 7, [&rids](uint64_t rid) { rids.push_back(rid); });
    EXPECT_EQ(rids, (std::vector<uint64_t>{2000 + j, 1000 + j, j})) << "j " << j;
  }
  std::vector<uint64_t> none;
  table.Probe((64 << 20) | 7, [&none](uint64_t rid) { none.push_back(rid); });
  EXPECT_TRUE(none.empty());
}

TEST(HashTable, ChainLengthCountsWhatProbeVisits) {
  Relation r(16);
  EXPECT_EQ(HashTable(r).ChainLength(1), 0u);
  for (int i = 0; i < 5; ++i) r.Append(42, i);
  const HashTable one_key(r);
  EXPECT_EQ(one_key.ChainLength(42), 5u);
  r.Append(9, 5);
  const HashTable single(r, 5, 6);
  EXPECT_EQ(single.num_buckets(), 1u);
  EXPECT_EQ(single.ChainLength(9), 1u);
  EXPECT_EQ(single.ChainLength(10), 1u);  // One bucket: every key visits it.
  EXPECT_EQ(single.CountMatches(9), 1u);
}

// ---------- Radix scatter ----------

TEST(RadixScatter, PreservesMultisetAndRoutesCorrectly) {
  Relation r(16);
  Random rng(3);
  for (int i = 0; i < 5000; ++i) r.Append(rng.Next() & 0xFFFF, i);
  auto parts = RadixScatter(r, 0, 4);
  ASSERT_EQ(parts.size(), 16u);
  uint64_t total = 0, key_sum_in = 0, key_sum_out = 0;
  for (uint64_t i = 0; i < r.num_tuples(); ++i) key_sum_in += r.Key(i);
  for (uint32_t p = 0; p < 16; ++p) {
    total += parts[p].num_tuples();
    for (uint64_t i = 0; i < parts[p].num_tuples(); ++i) {
      EXPECT_EQ(RadixBits(parts[p].Key(i), 0, 4), p);
      key_sum_out += parts[p].Key(i);
    }
  }
  EXPECT_EQ(total, r.num_tuples());
  EXPECT_EQ(key_sum_in, key_sum_out);
}

TEST(RadixScatter, UsesRequestedBitWindow) {
  Relation r(16);
  r.Append(0b0000, 0);
  r.Append(0b0100, 1);
  r.Append(0b1000, 2);
  r.Append(0b1100, 3);
  // Shift 2, bits 2: keys map to partitions 0..3 by bits [2,4).
  auto parts = RadixScatter(r, 2, 2);
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(parts[p].num_tuples(), 1u);
    EXPECT_EQ(parts[p].Rid(0), p);
  }
}

TEST(RadixScatter, WideTuplesKeepPayloadIntact) {
  Relation r(64);
  Random rng(5);
  for (int i = 0; i < 500; ++i) r.Append(rng.Next() & 0xFF, i);
  auto parts = RadixScatter(r, 0, 3);
  for (const auto& p : parts) EXPECT_TRUE(p.VerifyPayloads().ok());
}

// ---------- Contiguous radix partition kernel ----------

/// The plain reference: per-partition index lists in input order, copied
/// out back to back in radix order.
RadixPartitions ReferencePartition(const Relation& in, uint32_t shift, uint32_t bits) {
  std::vector<std::vector<uint64_t>> members(size_t{1} << bits);
  for (uint64_t i = 0; i < in.num_tuples(); ++i) {
    members[RadixBits(in.Key(i), shift, bits)].push_back(i);
  }
  RadixPartitions ref{Relation(in.tuple_bytes()), {0}};
  for (const auto& list : members) {
    for (uint64_t i : list) ref.tuples.AppendRaw(in.TupleAt(i), 1);
    ref.offsets.push_back(ref.tuples.num_tuples());
  }
  return ref;
}

void ExpectSameLayout(const RadixPartitions& got, const RadixPartitions& want) {
  ASSERT_EQ(got.offsets, want.offsets);
  ASSERT_EQ(got.tuples.tuple_bytes(), want.tuples.tuple_bytes());
  ASSERT_EQ(got.tuples.num_tuples(), want.tuples.num_tuples());
  if (want.tuples.empty()) return;
  EXPECT_EQ(std::memcmp(got.tuples.data(), want.tuples.data(), want.tuples.size_bytes()),
            0);
}

TEST(RadixPartition, ByteIdenticalToStableReference) {
  // One output and one scratch buffer across every case: the kernel must
  // not depend on what they held before (or on their width).
  RadixPartitions out;
  Relation scratch;
  for (uint32_t width : {16u, 32u, 64u}) {
    Relation in(width);
    Random rng(width);
    for (uint64_t i = 0; i < 3000; ++i) in.Append(rng.Next(), i);
    for (uint32_t bits : {0u, 1u, 7u, 10u, 11u}) {
      for (uint32_t bits_per_pass : {1u, 3u, 10u}) {
        SCOPED_TRACE(::testing::Message() << width << " B, bits " << bits
                                          << ", bits_per_pass " << bits_per_pass);
        const uint32_t passes =
            RadixPartition(in, /*shift=*/3, bits, bits_per_pass, &out, &scratch);
        EXPECT_EQ(passes, bits == 0 ? 0u : CeilDiv(bits, bits_per_pass));
        ExpectSameLayout(out, ReferencePartition(in, 3, bits));
      }
    }
  }
}

TEST(RadixPartition, EmptyInputYieldsEmptyPartitions) {
  Relation in(32);
  RadixPartitions out;
  EXPECT_EQ(RadixPartition(in, 0, 7, 3, &out), 3u);
  EXPECT_EQ(out.num_partitions(), 128u);
  ExpectSameLayout(out, ReferencePartition(in, 0, 7));
}

TEST(RadixPartition, AllTuplesInOnePartition) {
  for (uint32_t width : {16u, 64u}) {
    Relation in(width);
    Random rng(17);
    // Key bits [3, 10) are 5 for every tuple.
    for (uint64_t i = 0; i < 2000; ++i) in.Append((rng.Next() << 10) | (5 << 3), i);
    RadixPartitions out;
    RadixPartition(in, 3, 7, 3, &out);
    EXPECT_EQ(out.begin(5), 0u);
    EXPECT_EQ(out.end(5), in.num_tuples());
    ExpectSameLayout(out, ReferencePartition(in, 3, 7));
  }
}

TEST(HashTable, BuildReusedAcrossPartitionSizesProbesLikeAFreshTable) {
  Relation r(16);
  // Tuples [0, 1000) share one key, so their table is a single long chain
  // whose links would survive as bucket heads of a smaller table built
  // without resetting them.
  for (uint64_t i = 0; i < 1000; ++i) r.Append(5, i);
  Random rng(9);
  for (uint64_t i = 1000; i < 6000; ++i) r.Append(rng.Uniform(700), i);
  // Growing, then shrinking, then empty and growing again.
  const std::pair<uint64_t, uint64_t> ranges[] = {
      {1000, 1010}, {1010, 1300}, {0, 1000}, {1000, 1003}, {1300, 5300},
      {5300, 5303}, {100, 100},   {3000, 6000}, {5, 6}};
  HashTable reused;
  for (const auto& [begin, end] : ranges) {
    SCOPED_TRACE(::testing::Message() << "[" << begin << ", " << end << ")");
    reused.Build(r, begin, end);
    const HashTable fresh(r, begin, end);
    EXPECT_EQ(reused.num_entries(), fresh.num_entries());
    EXPECT_EQ(reused.num_buckets(), fresh.num_buckets());
    EXPECT_EQ(reused.size_bytes(), fresh.size_bytes());
    for (uint64_t key = 0; key < 710; ++key) {
      std::vector<uint64_t> got, want;
      reused.Probe(key, [&got](uint64_t rid) { got.push_back(rid); });
      fresh.Probe(key, [&want](uint64_t rid) { want.push_back(rid); });
      ASSERT_EQ(got, want) << "key " << key;
    }
  }
}

TEST(BitsForTarget, ComputesMinimalBits) {
  EXPECT_EQ(BitsForTarget(0, 1024), 0u);
  EXPECT_EQ(BitsForTarget(1024, 1024), 0u);
  EXPECT_EQ(BitsForTarget(1025, 1024), 1u);
  EXPECT_EQ(BitsForTarget(4096, 1024), 2u);
  EXPECT_EQ(BitsForTarget(1 << 20, 1024), 10u);
  EXPECT_EQ(BitsForTarget(1ull << 40, 1024, 14), 14u);  // capped
  EXPECT_EQ(BitsForTarget(12345, 0), 0u);               // disabled target
}

// ---------- Bit ops ----------

TEST(BitOps, PowersAndLogs) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(63));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(63), 64u);
  EXPECT_EQ(NextPowerOfTwo(64), 64u);
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(64), 6u);
  EXPECT_EQ(Log2Floor(65), 6u);
  EXPECT_EQ(Log2Ceil(1), 0u);
  EXPECT_EQ(Log2Ceil(64), 6u);
  EXPECT_EQ(Log2Ceil(65), 7u);
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
}

TEST(BitOps, RadixBitsExtractsWindow) {
  EXPECT_EQ(RadixBits(0b110110, 0, 3), 0b110u);
  EXPECT_EQ(RadixBits(0b110110, 3, 3), 0b110u);
  EXPECT_EQ(RadixBits(0xFFFFFFFFFFFFFFFFull, 60, 4), 0xFull);
}

}  // namespace
}  // namespace rdmajoin
