#include "workload/relation.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rdmajoin {

Relation::Relation(uint32_t tuple_bytes) : tuple_bytes_(tuple_bytes) {
  assert(tuple_bytes >= kNarrowTupleBytes && tuple_bytes % 8 == 0);
}

Relation::Relation(const Relation& other) : tuple_bytes_(other.tuple_bytes_) {
  AppendRaw(other.data(), other.num_tuples_);
}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : tuple_bytes_(other.tuple_bytes_),
      num_tuples_(std::exchange(other.num_tuples_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      data_(std::move(other.data_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  tuple_bytes_ = other.tuple_bytes_;
  num_tuples_ = std::exchange(other.num_tuples_, 0);
  capacity_ = std::exchange(other.capacity_, 0);
  data_ = std::move(other.data_);
  return *this;
}

void Relation::Reallocate(uint64_t tuples) {
  // Default-initialized: new bytes stay unwritten (and, for large
  // allocations, untouched pages) until a writer fills them.
  std::unique_ptr<uint8_t[]> fresh(new uint8_t[tuples * tuple_bytes_]);
  if (num_tuples_ > 0) std::memcpy(fresh.get(), data_.get(), size_bytes());
  data_ = std::move(fresh);
  capacity_ = tuples;
}

void Relation::Grow(uint64_t min_tuples) {
  Reallocate(std::max(min_tuples, 2 * capacity_));
}

void Relation::Reserve(uint64_t n) {
  if (n > capacity_) Reallocate(n);
}

void Relation::Resize(uint64_t n) {
  if (n > num_tuples_) {
    if (n > capacity_) Grow(n);
    std::memset(TupleAt(num_tuples_), 0, (n - num_tuples_) * tuple_bytes_);
  }
  num_tuples_ = n;
}

void Relation::Truncate(uint64_t n) {
  assert(n <= num_tuples_);
  num_tuples_ = n;
}

void Relation::Deallocate() {
  data_.reset();
  num_tuples_ = 0;
  capacity_ = 0;
}

void Relation::AppendRaw(const uint8_t* tuples, uint64_t count) {
  if (count == 0) return;
  std::memcpy(ExtendUninitialized(count), tuples, count * tuple_bytes_);
}

void Relation::Append(uint64_t key, uint64_t rid) {
  const uint64_t i = num_tuples_;
  ExtendUninitialized(1);
  SetTuple(i, key, rid);
}

Status Relation::VerifyPayloads() const {
  for (uint64_t i = 0; i < num_tuples_; ++i) {
    const uint8_t* t = TupleAt(i);
    const uint64_t key = Key(i);
    for (uint32_t j = kNarrowTupleBytes; j < tuple_bytes_; ++j) {
      if (t[j] != PayloadByte(key, j)) {
        return Status::Internal("payload corruption at tuple " + std::to_string(i) +
                                " byte " + std::to_string(j));
      }
    }
  }
  return Status::OK();
}

}  // namespace rdmajoin
