#ifndef RDMAJOIN_WORKLOAD_GENERATOR_H_
#define RDMAJOIN_WORKLOAD_GENERATOR_H_

#include <cstdint>

#include "util/statusor.h"
#include "workload/relation.h"

namespace rdmajoin {

/// Description of a join workload in the style of the paper's evaluation
/// (Section 6.1.1): highly distinct-value joins where every outer tuple has
/// exactly one match in the inner relation.
struct WorkloadSpec {
  /// Tuples in the inner relation R (actual, i.e. already scaled).
  uint64_t inner_tuples = 1 << 20;
  /// Tuples in the outer relation S. Ratios 1:1 ... 1:16 in the paper.
  uint64_t outer_tuples = 1 << 20;
  /// Tuple width in bytes: 16 (narrow, <key,rid>), 32 or 64 (Section 6.7).
  uint32_t tuple_bytes = kNarrowTupleBytes;
  /// Zipf exponent for the outer relation's foreign keys; 0 = uniform.
  /// The paper uses 1.05 (low skew) and 1.20 (high skew).
  double zipf_theta = 0.0;
  /// RNG seed; every workload is reproducible.
  uint64_t seed = 42;

  Status Validate() const;
};

/// Properties of the generated data the join output can be checked against.
/// Because inner keys are distinct and every outer key hits the inner
/// relation, the expected values are exact (computed during generation).
struct GroundTruth {
  /// Exact number of result tuples (= |S| for these workloads).
  uint64_t expected_matches = 0;
  /// Sum (mod 2^64) of the join key over all result tuples.
  uint64_t expected_key_sum = 0;
  /// Sum (mod 2^64) of the inner rid over all result tuples. Inner rids are
  /// derived as rid = 2*key + 1, so this is checkable without a lookup table.
  uint64_t expected_inner_rid_sum = 0;
};

/// A generated workload, fragmented across `num_machines` machines.
struct Workload {
  WorkloadSpec spec;
  DistributedRelation inner;
  DistributedRelation outer;
  GroundTruth truth;
};

/// Generates a workload per `spec`, fragmented evenly across `num_machines`.
///
/// Inner relation: keys are a random permutation of [0, inner_tuples), each
/// with rid = 2*key + 1 (identity-derived so that result checksums have a
/// closed form). Outer relation: uniform mode assigns key i%|R| to outer
/// tuple i before shuffling (exactly |S|/|R| matches per inner key); Zipf
/// mode samples keys from a Zipf distribution over [0, |R|).
StatusOr<Workload> GenerateWorkload(const WorkloadSpec& spec, uint32_t num_machines);

/// Checks, before anything is allocated, that the workload `spec` fits the
/// cluster's memory: each machine's share of both relations, split as
/// GenerateWorkload splits it, at `scale_up` virtual bytes per actual byte,
/// against `memory_per_machine_bytes` -- the reservation the join makes for
/// its inputs before it starts. ResourceExhausted, naming both numbers, when
/// a share does not fit; a host with less RAM than an accepted request is
/// not detected.
Status CheckWorkloadFitsMemory(const WorkloadSpec& spec, uint32_t num_machines,
                               double scale_up, uint64_t memory_per_machine_bytes);

/// Inner rid for key k under the generator's rid scheme.
inline uint64_t InnerRidForKey(uint64_t key) { return 2 * key + 1; }

}  // namespace rdmajoin

#endif  // RDMAJOIN_WORKLOAD_GENERATOR_H_
