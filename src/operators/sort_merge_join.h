#ifndef RDMAJOIN_OPERATORS_SORT_MERGE_JOIN_H_
#define RDMAJOIN_OPERATORS_SORT_MERGE_JOIN_H_

#include <utility>

#include "cluster/cluster.h"
#include "join/distributed_join.h"
#include "join/join_config.h"
#include "util/statusor.h"
#include "workload/relation.h"

namespace rdmajoin {

/// Distributed sort-merge join over RDMA: the Section 7 generalization of
/// the paper's techniques to a second join operator, in the style the
/// related-work comparison (Kim et al. [19], Albutiu et al. [2], Balkesen et
/// al. [3]) contrasts with the radix hash join.
///
/// Phases:
///   0. Sample-based splitter selection + histogram exchange: every machine
///      samples its outer chunk, the samples are all-gathered over the
///      control plane, and 2^network_radix_bits - 1 range splitters are
///      derived; the range histograms are all-reduced and size the
///      destination buffers.
///   1. Network range-partitioning pass: the hash join's Shuffle (pooled
///      RDMA buffers, double buffering, interleaving), partitioning by range
///      so each machine receives a contiguous key range.
///   2. Local sort of every received range (both relations).
///   3. Merge join of the sorted runs, range by range.
///
/// Returns the same JoinRunResult as DistributedJoin, including the
/// materialized <join_key, inner_rid> output; the build/probe phase carries
/// the merge work. With the calibrated cost model the radix hash
/// join wins (sorting is comparison-bound), matching the paper's choice of
/// algorithm and the conclusion of [3].
class DistributedSortMergeJoin {
 public:
  DistributedSortMergeJoin(ClusterConfig cluster, JoinConfig config)
      : cluster_(std::move(cluster)), config_(std::move(config)) {}

  StatusOr<JoinRunResult> Run(const DistributedRelation& inner,
                              const DistributedRelation& outer);

 private:
  ClusterConfig cluster_;
  JoinConfig config_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_OPERATORS_SORT_MERGE_JOIN_H_
