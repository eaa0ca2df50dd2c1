#include "join/local_partition.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/bit_ops.h"

namespace rdmajoin {

namespace {

/// Scatters `n` tuples from `src` by key bits [shift, shift+bits), tuple
/// by tuple through `cursor[digit]`. kWidth == 0 means `tuple_bytes` wide.
template <uint32_t kWidth>
void ScatterDigit(const uint8_t* src, uint64_t n, uint32_t tuple_bytes,
                  uint32_t shift, uint32_t bits, uint8_t** cursor) {
  const uint32_t width = kWidth != 0 ? kWidth : tuple_bytes;
  for (uint64_t i = 0; i < n; ++i, src += width) {
    uint64_t key;
    std::memcpy(&key, src + kKeyOffset, sizeof(key));
    uint8_t*& dst = cursor[RadixBits(key, shift, bits)];
    std::memcpy(dst, src, width);
    dst += width;
  }
}

/// Makes `rel` hold `n` uninitialized tuples of `tuple_bytes`, reusing its
/// storage when the width matches.
void ResetUninitialized(Relation* rel, uint32_t tuple_bytes, uint64_t n) {
  if (rel->tuple_bytes() != tuple_bytes) *rel = Relation(tuple_bytes);
  rel->Clear();
  rel->ExtendUninitialized(n);
}

}  // namespace

uint32_t RadixPartition(const Relation& in, uint32_t shift, uint32_t bits,
                        uint32_t bits_per_pass, RadixPartitions* out,
                        Relation* scratch) {
  assert(&out->tuples != &in && scratch != &in);
  const uint64_t n = in.num_tuples();
  const uint32_t tuple_bytes = in.tuple_bytes();
  const uint32_t parts = uint32_t{1} << bits;
  // Histogram of the whole window: the exact size of every final partition.
  std::vector<uint64_t>& offsets = out->offsets;
  offsets.assign(parts + 1, 0);
  for (uint64_t i = 0; i < n; ++i) ++offsets[RadixBits(in.Key(i), shift, bits) + 1];
  for (uint32_t q = 0; q < parts; ++q) offsets[q + 1] += offsets[q];

  ResetUninitialized(&out->tuples, tuple_bytes, n);
  if (bits == 0) {
    if (n > 0) std::memcpy(out->tuples.data(), in.data(), in.size_bytes());
    return 0;
  }
  assert(bits_per_pass >= 1);
  const uint32_t passes = static_cast<uint32_t>(CeilDiv(bits, bits_per_pass));
  Relation local_scratch(tuple_bytes);
  if (scratch == nullptr) scratch = &local_scratch;
  if (passes > 1) ResetUninitialized(scratch, tuple_bytes, n);

  std::vector<uint64_t> digit_counts;
  std::vector<uint8_t*> cursor;
  const uint8_t* src = in.data();
  uint32_t done_bits = 0;
  for (uint32_t pass = 0; pass < passes; ++pass) {
    const uint32_t step = std::min(bits_per_pass, bits - done_bits);
    // The last pass writes `out`; earlier ones alternate back from it.
    Relation* dst = (passes - 1 - pass) % 2 == 0 ? &out->tuples : scratch;
    // This digit's histogram is a marginal of the window histogram.
    digit_counts.assign(size_t{1} << step, 0);
    for (uint32_t q = 0; q < parts; ++q) {
      digit_counts[RadixBits(q, done_bits, step)] += offsets[q + 1] - offsets[q];
    }
    cursor.resize(digit_counts.size());
    uint8_t* next = dst->data();
    for (size_t d = 0; d < digit_counts.size(); ++d) {
      cursor[d] = next;
      next += digit_counts[d] * tuple_bytes;
    }
    if (tuple_bytes == kNarrowTupleBytes) {
      ScatterDigit<kNarrowTupleBytes>(src, n, tuple_bytes, shift + done_bits, step,
                                      cursor.data());
    } else {
      ScatterDigit<0>(src, n, tuple_bytes, shift + done_bits, step, cursor.data());
    }
    src = dst->data();
    done_bits += step;
  }
  return passes;
}

std::vector<Relation> RadixScatterMultiPass(const Relation& in, uint32_t shift,
                                            uint32_t bits, uint32_t bits_per_pass,
                                            uint32_t* passes,
                                            uint64_t* bytes_processed) {
  RadixPartitions parts;
  const uint32_t executed = RadixPartition(in, shift, bits, bits_per_pass, &parts);
  if (passes != nullptr) *passes = executed;
  if (bytes_processed != nullptr) *bytes_processed = executed * in.size_bytes();
  std::vector<Relation> out;
  out.reserve(parts.num_partitions());
  for (uint32_t q = 0; q < parts.num_partitions(); ++q) {
    Relation& slice = out.emplace_back(in.tuple_bytes());
    slice.AppendRaw(parts.tuples.TupleAt(parts.begin(q)), parts.end(q) - parts.begin(q));
  }
  return out;
}

std::vector<Relation> RadixScatter(const Relation& in, uint32_t shift, uint32_t bits) {
  return RadixScatterMultiPass(in, shift, bits, std::max(bits, 1u));
}

uint32_t BitsForTarget(uint64_t max_partition_bytes, uint64_t target_bytes,
                       uint32_t max_bits) {
  if (target_bytes == 0 || max_partition_bytes <= target_bytes) return 0;
  const uint64_t chunks = CeilDiv(max_partition_bytes, target_bytes);
  return std::min(Log2Ceil(chunks), max_bits);
}

}  // namespace rdmajoin
