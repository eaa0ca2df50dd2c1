#ifndef RDMAJOIN_JOIN_PARTITIONER_H_
#define RDMAJOIN_JOIN_PARTITIONER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rdmajoin {

/// Maps join/group keys to first-pass partitions. The radix hash join uses
/// the low key bits (Section 3.1); the distributed sort-merge join uses
/// range boundaries so each partition is a contiguous key range.
class Partitioner {
 public:
  /// The two partition functions; VisitPartitioner dispatches on it.
  enum class Kind { kRadix, kRange };

  virtual ~Partitioner() = default;
  virtual uint32_t PartitionOf(uint64_t key) const = 0;
  virtual uint32_t num_partitions() const = 0;
  Kind kind() const { return kind_; }

 protected:
  explicit Partitioner(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// Radix partitioning: partition = key & (2^bits - 1).
class RadixPartitioner final : public Partitioner {
 public:
  explicit RadixPartitioner(uint32_t bits)
      : Partitioner(Kind::kRadix), bits_(bits), mask_((uint64_t{1} << bits) - 1) {
    assert(bits >= 1 && bits <= 20);
  }
  uint32_t PartitionOf(uint64_t key) const override {
    return static_cast<uint32_t>(key & mask_);
  }
  uint32_t num_partitions() const override { return uint32_t{1} << bits_; }

 private:
  uint32_t bits_;
  uint64_t mask_;
};

/// Range partitioning: partition p covers keys in
/// [splitters[p-1], splitters[p]), with open ends. `splitters` must be
/// strictly increasing; there are splitters.size() + 1 partitions.
class RangePartitioner final : public Partitioner {
 public:
  explicit RangePartitioner(std::vector<uint64_t> splitters)
      : Partitioner(Kind::kRange), splitters_(std::move(splitters)) {
    assert(std::is_sorted(splitters_.begin(), splitters_.end()));
  }
  uint32_t PartitionOf(uint64_t key) const override {
    return static_cast<uint32_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), key) -
        splitters_.begin());
  }
  uint32_t num_partitions() const override {
    return static_cast<uint32_t>(splitters_.size()) + 1;
  }
  const std::vector<uint64_t>& splitters() const { return splitters_; }

 private:
  std::vector<uint64_t> splitters_;
};

/// Calls `fn` with `partitioner` as its concrete (final) type, so the
/// per-tuple loops `fn` runs inline PartitionOf instead of paying a virtual
/// call per tuple.
template <typename Fn>
decltype(auto) VisitPartitioner(const Partitioner& partitioner, Fn&& fn) {
  if (partitioner.kind() == Partitioner::Kind::kRadix) {
    return fn(static_cast<const RadixPartitioner&>(partitioner));
  }
  return fn(static_cast<const RangePartitioner&>(partitioner));
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_PARTITIONER_H_
