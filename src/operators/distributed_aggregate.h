#ifndef RDMAJOIN_OPERATORS_DISTRIBUTED_AGGREGATE_H_
#define RDMAJOIN_OPERATORS_DISTRIBUTED_AGGREGATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "join/join_config.h"
#include "join/shuffle.h"
#include "timing/phase_times.h"
#include "timing/replay.h"
#include "timing/trace.h"
#include "util/statusor.h"
#include "workload/relation.h"

namespace rdmajoin {

/// Aggregated output of a distributed group-by. With the library's
/// workloads, every field has a closed-form expected value (counts and sums
/// are conserved across the network), so runs verify end to end.
struct AggregateResultStats {
  /// Number of distinct group keys.
  uint64_t groups = 0;
  /// Sum over groups of their tuple counts (== input cardinality).
  uint64_t total_count = 0;
  /// Sum (mod 2^64) over all input tuples of the aggregated value (the
  /// tuple's rid field plays the role of the measure column).
  uint64_t value_sum = 0;
  /// Sum (mod 2^64) of the distinct group keys.
  uint64_t group_key_sum = 0;
};

struct AggregateRunResult {
  AggregateResultStats stats;
  PhaseTimes times;
  ReplayReport replay;
  RunTrace trace;
  NetworkSummary net;
  /// When JoinConfig::materialize_results is set: one <group_key, sum>
  /// tuple per group, partitioned by key across machines.
  DistributedRelation output;
};

/// Distributed group-by aggregation (COUNT + SUM per key) built from the
/// same primitives as the join -- the Section 7 claim that RDMA buffer
/// pooling, buffer reuse and interleaving "can be used to create distributed
/// versions of many database operators" made concrete: the join's Shuffle
/// (histogram exchange, radix partitioning into pooled RDMA buffers), then
/// machine-local hash aggregation of each partition. There is no second relation, no local
/// repartitioning pass, and the result stays partitioned across machines.
class DistributedAggregate {
 public:
  DistributedAggregate(ClusterConfig cluster, JoinConfig config)
      : cluster_(std::move(cluster)), config_(std::move(config)) {}

  /// Groups `input` by key, aggregating COUNT(*) and SUM(rid).
  StatusOr<AggregateRunResult> Run(const DistributedRelation& input);

 private:
  ClusterConfig cluster_;
  JoinConfig config_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_OPERATORS_DISTRIBUTED_AGGREGATE_H_
