#ifndef RDMAJOIN_JOIN_HASH_TABLE_H_
#define RDMAJOIN_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "util/bit_ops.h"
#include "workload/relation.h"

namespace rdmajoin {

/// A bucket-chained hash table over one cache-sized partition of the inner
/// relation, in the style of the Balkesen et al. radix join: contiguous key
/// and rid arrays plus a chain array, so both build and probe are sequential
/// scans with one indirection per collision.
///
/// A table of 2^k buckets files a key under the top k bits of HashKey(key).
/// The low bits would not do: radix partitioning hands the table keys that
/// all share their low b1 + b2 bits, and the low k bits of a product depend
/// only on the low k bits of its factors, so every key of a partition would
/// land in one bucket. Equal keys share a bucket under any bucket function
/// and a chain lists them in reverse insertion order, so a probe emits the
/// same rids in the same order whichever bits pick the bucket.
class HashTable {
 public:
  /// An empty table; Build fills it.
  HashTable() = default;
  /// Builds the table over all tuples of `build_side`.
  explicit HashTable(const Relation& build_side);
  /// Builds over the tuple index range [begin, end) of `build_side`.
  HashTable(const Relation& build_side, uint64_t begin, uint64_t end);
  /// Rebuilds the table over the tuple index range [begin, end) of
  /// `build_side`, reusing this table's storage: one table serves every
  /// cache-sized partition a machine joins.
  void Build(const Relation& build_side, uint64_t begin, uint64_t end);

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;
  HashTable(HashTable&&) = default;
  HashTable& operator=(HashTable&&) = default;

  /// Invokes `emit(rid)` for every build tuple whose key equals `key`.
  template <typename F>
  void Probe(uint64_t key, F&& emit) const {
    if (num_entries_ == 0) return;
    uint32_t slot = next_[num_entries_ + Bucket(key)];
    while (slot != kEmpty) {
      if (keys_[slot] == key) emit(rids_[slot]);
      slot = next_[slot];
    }
  }

  /// The number of entries Probe(key) visits: the length of `key`'s bucket
  /// chain, matching or not.
  uint64_t ChainLength(uint64_t key) const;

  /// Number of matches for `key` (convenience for tests).
  uint64_t CountMatches(uint64_t key) const {
    uint64_t n = 0;
    Probe(key, [&n](uint64_t) { ++n; });
    return n;
  }

  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_buckets() const { return (uint64_t{1} << 63) >> bucket_shift_; }
  /// Approximate footprint; the partitioning stage targets tables that fit
  /// the private processor cache.
  uint64_t size_bytes() const {
    return keys_.size() * sizeof(uint64_t) + rids_.size() * sizeof(uint64_t) +
           next_.size() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// The top log2(num_buckets()) bits of HashKey(key). Two shifts, so that a
  /// one-bucket table (bucket_shift_ == 63) never shifts by 64.
  uint64_t Bucket(uint64_t key) const { return (HashKey(key) >> 1) >> bucket_shift_; }

  uint64_t num_entries_ = 0;
  /// 63 - log2(num_buckets()).
  uint32_t bucket_shift_ = 63;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> rids_;
  /// next_[0 .. n) are entry chains; next_[n .. n+buckets) are bucket heads.
  std::vector<uint32_t> next_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_HASH_TABLE_H_
