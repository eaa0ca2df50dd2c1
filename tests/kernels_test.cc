// Tests for the hardware-conscious kernels: LSB radix sort.

#include <gtest/gtest.h>

#include "join/local_partition.h"
#include "operators/radix_sort.h"
#include "operators/sort_utils.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

Relation RandomRelation(uint64_t n, uint64_t key_mask, uint64_t seed,
                        uint32_t width = 16) {
  Relation r(width);
  Random rng(seed);
  r.Resize(n);
  for (uint64_t i = 0; i < n; ++i) r.SetTuple(i, rng.Next() & key_mask, i);
  return r;
}

// ---------- Radix sort ----------

TEST(RadixSort, SortsRandomKeys) {
  Relation r = RandomRelation(50000, 0xFFFFFFFF, 21);
  uint64_t key_sum = 0;
  for (uint64_t i = 0; i < r.num_tuples(); ++i) key_sum += r.Key(i);
  RadixSortByKey(&r);
  EXPECT_TRUE(IsSortedByKey(r));
  uint64_t after = 0;
  for (uint64_t i = 0; i < r.num_tuples(); ++i) after += r.Key(i);
  EXPECT_EQ(key_sum, after);
}

TEST(RadixSort, AgreesWithComparisonSort) {
  Relation a = RandomRelation(5000, 0xFFFF, 22);
  Relation b(16);
  b.AppendRaw(a.data(), a.num_tuples());
  RadixSortByKey(&a);
  SortRelationByKey(&b);
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  for (uint64_t i = 0; i < a.num_tuples(); ++i) {
    EXPECT_EQ(a.Key(i), b.Key(i)) << i;
    EXPECT_EQ(a.Rid(i), b.Rid(i)) << i;  // Both sorts are stable.
  }
}

TEST(RadixSort, StableWithinEqualKeys) {
  Relation r(16);
  for (uint64_t i = 0; i < 1000; ++i) r.Append(i % 7, i);
  RadixSortByKey(&r);
  for (uint64_t i = 1; i < r.num_tuples(); ++i) {
    if (r.Key(i) == r.Key(i - 1)) {
      EXPECT_GT(r.Rid(i), r.Rid(i - 1));
    }
  }
}

TEST(RadixSort, HandlesTrivialAndWideInputs) {
  Relation empty(16);
  RadixSortByKey(&empty);
  EXPECT_EQ(empty.num_tuples(), 0u);
  Relation one(16);
  one.Append(42, 1);
  RadixSortByKey(&one);
  EXPECT_EQ(one.Key(0), 42u);
  Relation wide = RandomRelation(2000, 0xFFFFF, 23, 64);
  RadixSortByKey(&wide);
  EXPECT_TRUE(IsSortedByKey(wide));
  EXPECT_TRUE(wide.VerifyPayloads().ok());
}

TEST(RadixSort, LargeKeysUseMorePasses) {
  EXPECT_EQ(RadixSortPasses(0), 1u);
  EXPECT_EQ(RadixSortPasses(255), 1u);
  EXPECT_EQ(RadixSortPasses(256), 2u);
  EXPECT_EQ(RadixSortPasses(UINT64_MAX), 8u);
  // Odd and even pass counts both land the result in the right buffer.
  Relation odd = RandomRelation(3000, 0xFF, 24);      // 1 pass
  Relation even = RandomRelation(3000, 0xFFFF, 25);   // 2 passes
  Relation three = RandomRelation(3000, 0xFFFFFF, 26);  // 3 passes
  RadixSortByKey(&odd);
  RadixSortByKey(&even);
  RadixSortByKey(&three);
  EXPECT_TRUE(IsSortedByKey(odd));
  EXPECT_TRUE(IsSortedByKey(even));
  EXPECT_TRUE(IsSortedByKey(three));
}

}  // namespace
}  // namespace rdmajoin
