// Runs any of the three distributed operators through one call, for tests
// whose property must hold for every operator that shares the network pass.

#ifndef RDMAJOIN_TESTS_OPERATOR_RUNS_H_
#define RDMAJOIN_TESTS_OPERATOR_RUNS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "join/distributed_join.h"
#include "join/join_config.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"
#include "workload/generator.h"

namespace rdmajoin {

enum class Operator { kHashJoin, kSortMerge, kAggregate };

inline constexpr Operator kAllOperators[] = {Operator::kHashJoin, Operator::kSortMerge,
                                             Operator::kAggregate};

inline const char* OperatorName(Operator op) {
  switch (op) {
    case Operator::kHashJoin:
      return "hashjoin";
    case Operator::kSortMerge:
      return "sortmerge";
    case Operator::kAggregate:
      return "aggregate";
  }
  return "?";
}

/// What the fault tests read of a run, whatever the operator.
struct OperatorRun {
  Status status;
  PhaseTimes times;
  AttributionReport attribution;
  /// Matches of a join, groups of the aggregation.
  uint64_t rows = 0;
  /// The result equals the workload's exact ground truth: every checksum of
  /// a join; group count, tuple count, value sum and group-key sum of the
  /// aggregation (a group-by of the outer relation).
  bool exact = false;
};

inline OperatorRun RunOperator(Operator op, const ClusterConfig& cluster,
                               const JoinConfig& config, const Workload& w) {
  OperatorRun out;
  if (op == Operator::kAggregate) {
    auto result = DistributedAggregate(cluster, config).Run(w.outer);
    out.status = result.status();
    if (!result.ok()) return out;
    std::vector<uint64_t> keys;
    uint64_t value_sum = 0;
    for (const Relation& chunk : w.outer.chunks) {
      for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
        keys.push_back(chunk.Key(i));
        value_sum += chunk.Rid(i);
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    uint64_t key_sum = 0;
    for (uint64_t key : keys) key_sum += key;
    const AggregateResultStats& stats = result->stats;
    out.times = result->times;
    out.attribution = result->replay.attribution;
    out.rows = stats.groups;
    out.exact = stats.groups == keys.size() &&
                stats.total_count == w.outer.total_tuples() &&
                stats.value_sum == value_sum && stats.group_key_sum == key_sum;
    return out;
  }
  auto result = op == Operator::kHashJoin
                    ? DistributedJoin(cluster, config).Run(w.inner, w.outer)
                    : DistributedSortMergeJoin(cluster, config).Run(w.inner, w.outer);
  out.status = result.status();
  if (!result.ok()) return out;
  const JoinResultStats& stats = result->stats;
  out.times = result->times;
  out.attribution = result->replay.attribution;
  out.rows = stats.matches;
  out.exact = stats.matches == w.truth.expected_matches &&
              stats.key_sum == w.truth.expected_key_sum &&
              stats.inner_rid_sum == w.truth.expected_inner_rid_sum;
  return out;
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_TESTS_OPERATOR_RUNS_H_
