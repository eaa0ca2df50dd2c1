#ifndef RDMAJOIN_WORKLOAD_RELATION_H_
#define RDMAJOIN_WORKLOAD_RELATION_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/status.h"

namespace rdmajoin {

/// Byte offset of the 8-byte join key within a tuple.
inline constexpr uint32_t kKeyOffset = 0;
/// Byte offset of the 8-byte record id within a tuple.
inline constexpr uint32_t kRidOffset = 8;
/// Minimum tuple width: <key, rid> (the paper's narrow-tuple workload).
inline constexpr uint32_t kNarrowTupleBytes = 16;

/// A row-layout in-memory relation: `num_tuples` fixed-width tuples, key at
/// offset 0 and record id at offset 8, followed by an optional payload
/// (Section 6.7's wide-tuple workloads use 32- and 64-byte tuples).
class Relation {
 public:
  /// Creates an empty relation of `tuple_bytes`-wide tuples. Width must be a
  /// multiple of 8 and at least 16.
  explicit Relation(uint32_t tuple_bytes = kNarrowTupleBytes);

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  uint32_t tuple_bytes() const { return tuple_bytes_; }
  uint64_t num_tuples() const { return num_tuples_; }
  uint64_t size_bytes() const { return num_tuples_ * tuple_bytes_; }
  bool empty() const { return num_tuples_ == 0; }
  /// Tuples the storage holds before the next reallocation.
  uint64_t capacity() const { return capacity_; }

  /// Grows the storage to exactly `n` tuples if it holds fewer, without
  /// changing num_tuples().
  void Reserve(uint64_t n);
  /// Sets the tuple count; newly exposed tuples are zero-initialized.
  void Resize(uint64_t n);
  /// Appends `n` tuples whose bytes are left uninitialized and returns the
  /// first of them; the caller writes all n * tuple_bytes() bytes. Within
  /// capacity() this is a pointer bump, so histogram-sized storage
  /// (Reserve'd to its exact count) is filled at known offsets.
  uint8_t* ExtendUninitialized(uint64_t n) {
    if (num_tuples_ + n > capacity_) Grow(num_tuples_ + n);
    uint8_t* first = data_.get() + num_tuples_ * tuple_bytes_;
    num_tuples_ += n;
    return first;
  }
  /// Drops the tuples past the first `n` (n <= num_tuples()); keeps storage.
  void Truncate(uint64_t n);
  /// Drops every tuple; keeps storage.
  void Clear() { num_tuples_ = 0; }
  /// Releases all storage.
  void Deallocate();

  const uint8_t* data() const { return data_.get(); }
  uint8_t* data() { return data_.get(); }
  const uint8_t* TupleAt(uint64_t i) const { return data_.get() + i * tuple_bytes_; }
  uint8_t* TupleAt(uint64_t i) { return data_.get() + i * tuple_bytes_; }

  uint64_t Key(uint64_t i) const {
    uint64_t k;
    std::memcpy(&k, TupleAt(i) + kKeyOffset, sizeof(k));
    return k;
  }
  uint64_t Rid(uint64_t i) const {
    uint64_t r;
    std::memcpy(&r, TupleAt(i) + kRidOffset, sizeof(r));
    return r;
  }

  /// Writes key and rid of tuple `i`; the payload (if any) is filled with the
  /// deterministic pattern PayloadByte(key, j) so transfers can be verified.
  /// Every byte of the tuple is written.
  void SetTuple(uint64_t i, uint64_t key, uint64_t rid) {
    uint8_t* t = TupleAt(i);
    std::memcpy(t + kKeyOffset, &key, sizeof(key));
    std::memcpy(t + kRidOffset, &rid, sizeof(rid));
    for (uint32_t j = kNarrowTupleBytes; j < tuple_bytes_; ++j) {
      t[j] = PayloadByte(key, j);
    }
  }

  /// Appends `count` raw tuples (must match this relation's width).
  void AppendRaw(const uint8_t* tuples, uint64_t count);
  /// Appends a single <key, rid> tuple with a deterministic payload.
  void Append(uint64_t key, uint64_t rid);

  /// Expected payload byte `j` (j >= 16) of a tuple with key `key`.
  static uint8_t PayloadByte(uint64_t key, uint32_t j) {
    return static_cast<uint8_t>((key + j) & 0xFF);
  }

  /// Verifies the payload pattern of every tuple; used by integrity tests.
  Status VerifyPayloads() const;

 private:
  /// Reallocates to hold at least `min_tuples`, at least doubling capacity.
  void Grow(uint64_t min_tuples);
  /// Reallocates to exactly `tuples`, keeping the current tuples.
  void Reallocate(uint64_t tuples);

  uint32_t tuple_bytes_;
  uint64_t num_tuples_ = 0;
  uint64_t capacity_ = 0;
  std::unique_ptr<uint8_t[]> data_;
};

/// A relation horizontally fragmented across the machines of a cluster
/// (the paper's data-loading phase distributes input evenly, Section 6.1.1).
struct DistributedRelation {
  std::vector<Relation> chunks;  // chunks[m] lives on machine m.

  uint64_t total_tuples() const {
    uint64_t n = 0;
    for (const auto& c : chunks) n += c.num_tuples();
    return n;
  }
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const auto& c : chunks) n += c.size_bytes();
    return n;
  }
  uint32_t tuple_bytes() const {
    return chunks.empty() ? kNarrowTupleBytes : chunks[0].tuple_bytes();
  }
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_WORKLOAD_RELATION_H_
