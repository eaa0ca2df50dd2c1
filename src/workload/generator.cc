#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

#include "util/random.h"
#include "util/zipf.h"

namespace rdmajoin {

namespace {

/// Splits `total` tuples into per-machine chunk sizes, distributing the
/// remainder over the first machines.
std::vector<uint64_t> EvenSplit(uint64_t total, uint32_t machines) {
  std::vector<uint64_t> sizes(machines, total / machines);
  for (uint64_t i = 0; i < total % machines; ++i) ++sizes[i];
  return sizes;
}

}  // namespace

Status WorkloadSpec::Validate() const {
  if (inner_tuples == 0 || outer_tuples == 0) {
    return Status::InvalidArgument("relations must be non-empty");
  }
  if (outer_tuples < inner_tuples) {
    return Status::InvalidArgument(
        "the outer relation must be at least as large as the inner relation");
  }
  if (tuple_bytes < kNarrowTupleBytes || tuple_bytes % 8 != 0) {
    return Status::InvalidArgument("tuple width must be a multiple of 8, >= 16");
  }
  if (zipf_theta < 0) return Status::InvalidArgument("zipf_theta must be >= 0");
  return Status::OK();
}

Status CheckWorkloadFitsMemory(const WorkloadSpec& spec, uint32_t num_machines,
                               double scale_up, uint64_t memory_per_machine_bytes) {
  if (num_machines == 0) {
    return Status::InvalidArgument("need at least one machine");
  }
  // EvenSplit hands the remainders to the first machines, so machine 0
  // holds the largest share. Doubles keep the product from overflowing; the
  // floor matches the join's cast of the same product.
  const double tuples =
      static_cast<double>(EvenSplit(spec.inner_tuples, num_machines)[0]) +
      static_cast<double>(EvenSplit(spec.outer_tuples, num_machines)[0]);
  const double bytes = std::floor(tuples * spec.tuple_bytes * scale_up);
  if (bytes > static_cast<double>(memory_per_machine_bytes)) {
    char needed[32];
    std::snprintf(needed, sizeof(needed), "%.0f", bytes);
    return Status::ResourceExhausted(
        "the input does not fit in machine memory: machine 0 holds " +
        std::string(needed) + " bytes of R and S, memory_per_machine_bytes is " +
        std::to_string(memory_per_machine_bytes));
  }
  return Status::OK();
}

StatusOr<Workload> GenerateWorkload(const WorkloadSpec& spec, uint32_t num_machines) {
  RDMAJOIN_RETURN_IF_ERROR(spec.Validate());
  if (num_machines == 0) {
    return Status::InvalidArgument("need at least one machine");
  }

  Workload w;
  w.spec = spec;
  Random rng(spec.seed);

  // --- Inner relation: a shuffled permutation of [0, |R|). ---
  // One key buffer serves both relations: first the inner permutation, then
  // the outer foreign keys.
  std::vector<uint64_t> keys(spec.inner_tuples);
  std::iota(keys.begin(), keys.end(), 0);
  for (uint64_t i = spec.inner_tuples - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  const auto inner_sizes = EvenSplit(spec.inner_tuples, num_machines);
  w.inner.chunks.reserve(num_machines);
  uint64_t pos = 0;
  for (uint32_t m = 0; m < num_machines; ++m) {
    Relation chunk(spec.tuple_bytes);
    chunk.ExtendUninitialized(inner_sizes[m]);  // SetTuple writes every byte.
    for (uint64_t i = 0; i < inner_sizes[m]; ++i) {
      const uint64_t key = keys[pos++];
      chunk.SetTuple(i, key, InnerRidForKey(key));
    }
    w.inner.chunks.push_back(std::move(chunk));
  }

  // --- Outer relation: every key in [0, |R|), uniform or Zipf. ---
  keys.resize(spec.outer_tuples);  // Every entry is overwritten below.
  if (spec.zipf_theta == 0.0) {
    // keys[i] = i % |R|, without a division per tuple.
    uint64_t key = 0;
    for (uint64_t i = 0; i < spec.outer_tuples; ++i) {
      keys[i] = key;
      if (++key == spec.inner_tuples) key = 0;
    }
    for (uint64_t i = spec.outer_tuples - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.Uniform(i + 1)]);
    }
  } else {
    ZipfGenerator zipf(spec.inner_tuples, spec.zipf_theta, rng.Next());
    for (uint64_t i = 0; i < spec.outer_tuples; ++i) keys[i] = zipf.Next();
  }

  uint64_t key_sum = 0;
  uint64_t rid_sum = 0;
  const auto outer_sizes = EvenSplit(spec.outer_tuples, num_machines);
  w.outer.chunks.reserve(num_machines);
  pos = 0;
  for (uint32_t m = 0; m < num_machines; ++m) {
    Relation chunk(spec.tuple_bytes);
    chunk.ExtendUninitialized(outer_sizes[m]);
    for (uint64_t i = 0; i < outer_sizes[m]; ++i) {
      const uint64_t key = keys[pos];
      chunk.SetTuple(i, key, pos);
      key_sum += key;
      rid_sum += InnerRidForKey(key);
      ++pos;
    }
    w.outer.chunks.push_back(std::move(chunk));
  }

  w.truth.expected_matches = spec.outer_tuples;
  w.truth.expected_key_sum = key_sum;
  w.truth.expected_inner_rid_sum = rid_sum;
  return w;
}

}  // namespace rdmajoin
