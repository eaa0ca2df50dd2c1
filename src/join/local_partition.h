#ifndef RDMAJOIN_JOIN_LOCAL_PARTITION_H_
#define RDMAJOIN_JOIN_LOCAL_PARTITION_H_

#include <cstdint>
#include <vector>

#include "workload/relation.h"

namespace rdmajoin {

/// 2^bits radix partitions of one input laid out back to back in `tuples`,
/// in radix order: partition q is the tuple index range
/// [offsets[q], offsets[q + 1]).
struct RadixPartitions {
  Relation tuples;
  /// 2^bits + 1 prefix sums of the partition sizes.
  std::vector<uint64_t> offsets;

  uint32_t num_partitions() const {
    return offsets.empty() ? 0 : static_cast<uint32_t>(offsets.size() - 1);
  }
  uint64_t begin(uint32_t q) const { return offsets[q]; }
  uint64_t end(uint32_t q) const { return offsets[q + 1]; }
  uint64_t size_bytes(uint32_t q) const {
    return (offsets[q + 1] - offsets[q]) * tuples.tuple_bytes();
  }
};

/// The local radix partitioning kernel (Section 4.2.3) shared by the
/// distributed join and every RadixScatter caller: one histogram scan over
/// the key bits [shift, shift+bits), a prefix sum, then one scatter pass per
/// digit of at most `bits_per_pass` bits, each writing tuples at known
/// offsets. Capping the digit width bounds the number of simultaneously
/// written output streams to the TLB/cache-line budget (Manegold et al.'s
/// radix clustering). Digits are scattered least significant first and
/// every pass is stable, so the result is in radix order and each partition
/// keeps the input order of its tuples. Multi-pass runs ping-pong through
/// `scratch` (a temporary if null); `out` and `scratch` keep their storage
/// across calls. Returns the number of passes (0 when bits == 0, which
/// copies `in` into a single partition).
uint32_t RadixPartition(const Relation& in, uint32_t shift, uint32_t bits,
                        uint32_t bits_per_pass, RadixPartitions* out,
                        Relation* scratch = nullptr);

/// One radix-partitioning pass over a relation: 2^bits output partitions
/// keyed on key bits [shift, shift+bits), each its own Relation. A slicing
/// adapter over RadixPartition.
std::vector<Relation> RadixScatter(const Relation& in, uint32_t shift, uint32_t bits);

/// Radix bits needed so that partitioning `max_partition_bytes` into equal
/// chunks yields chunks of at most `target_bytes` (capped at `max_bits`).
uint32_t BitsForTarget(uint64_t max_partition_bytes, uint64_t target_bytes,
                       uint32_t max_bits = 14);

/// Multi-pass radix partitioning (Section 3.1) into 2^bits partitions in
/// radix order, at most 2^`bits_per_pass` of fan-out per pass, each
/// partition its own Relation. A slicing adapter over RadixPartition; sets
/// `*passes` (if non-null) to the number of passes executed and
/// `*bytes_processed` to the total bytes moved (bytes * passes).
std::vector<Relation> RadixScatterMultiPass(const Relation& in, uint32_t shift,
                                            uint32_t bits, uint32_t bits_per_pass,
                                            uint32_t* passes = nullptr,
                                            uint64_t* bytes_processed = nullptr);

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_LOCAL_PARTITION_H_
