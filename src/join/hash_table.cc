#include "join/hash_table.h"

#include <cassert>

namespace rdmajoin {

HashTable::HashTable(const Relation& build_side)
    : HashTable(build_side, 0, build_side.num_tuples()) {}

HashTable::HashTable(const Relation& build_side, uint64_t begin, uint64_t end) {
  Build(build_side, begin, end);
}

void HashTable::Build(const Relation& build_side, uint64_t begin, uint64_t end) {
  assert(begin <= end && end <= build_side.num_tuples());
  num_entries_ = end - begin;
  assert(num_entries_ < kEmpty);
  const uint64_t buckets = num_entries_ == 0 ? 1 : NextPowerOfTwo(num_entries_);
  bucket_shift_ = 63 - Log2Floor(buckets);
  keys_.resize(num_entries_);
  rids_.resize(num_entries_);
  next_.assign(num_entries_ + buckets, kEmpty);
  for (uint64_t i = 0; i < num_entries_; ++i) {
    const uint64_t key = build_side.Key(begin + i);
    keys_[i] = key;
    rids_[i] = build_side.Rid(begin + i);
    uint32_t* head = &next_[num_entries_ + Bucket(key)];
    next_[i] = *head;
    *head = static_cast<uint32_t>(i);
  }
}

uint64_t HashTable::ChainLength(uint64_t key) const {
  if (num_entries_ == 0) return 0;
  uint64_t n = 0;
  for (uint32_t slot = next_[num_entries_ + Bucket(key)]; slot != kEmpty;
       slot = next_[slot]) {
    ++n;
  }
  return n;
}

}  // namespace rdmajoin
