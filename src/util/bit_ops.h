#ifndef RDMAJOIN_UTIL_BIT_OPS_H_
#define RDMAJOIN_UTIL_BIT_OPS_H_

#include <bit>
#include <cstdint>

namespace rdmajoin {

/// Returns true iff `x` is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x must be >= 1).
constexpr uint64_t NextPowerOfTwo(uint64_t x) { return std::bit_ceil(x); }

/// Floor of log2(x); x must be > 0.
constexpr uint32_t Log2Floor(uint64_t x) {
  return 63u - static_cast<uint32_t>(std::countl_zero(x));
}

/// Ceiling of log2(x); x must be > 0.
constexpr uint32_t Log2Ceil(uint64_t x) {
  return x <= 1 ? 0 : Log2Floor(x - 1) + 1;
}

/// Extracts `bits` bits of `key` starting at bit `shift` (little-endian bit
/// numbering). This is the radix function of the join: pass i of a multi-pass
/// radix partitioning uses a disjoint (shift, bits) window of the key.
constexpr uint64_t RadixBits(uint64_t key, uint32_t shift, uint32_t bits) {
  return (key >> shift) & ((uint64_t{1} << bits) - 1);
}

/// Integer division rounding up.
constexpr uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Multiplicative 64-bit hash (Fibonacci hashing) used by the bucket-chained
/// hash tables. Only the top bits of the product are well mixed: its low k
/// bits depend only on the low k bits of `key`. Inside a radix partition
/// every key shares its low b1 + b2 bits (the partitioning passes route on
/// them), so a table of 2^k buckets must take the top k bits, as
/// HashTable does, or every key of the partition falls into one bucket.
constexpr uint64_t HashKey(uint64_t key) {
  return key * UINT64_C(0x9E3779B97F4A7C15);
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_BIT_OPS_H_
