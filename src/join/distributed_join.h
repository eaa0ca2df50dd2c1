#ifndef RDMAJOIN_JOIN_DISTRIBUTED_JOIN_H_
#define RDMAJOIN_JOIN_DISTRIBUTED_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "join/join_config.h"
#include "join/result_stats.h"
#include "join/shuffle.h"
#include "timing/phase_times.h"
#include "timing/replay.h"
#include "timing/trace.h"
#include "util/statusor.h"
#include "workload/relation.h"

namespace rdmajoin {

/// Complete result of a simulated distributed join execution.
struct JoinRunResult {
  JoinResultStats stats;
  /// Virtual (full-scale) per-phase times from the timing replay.
  PhaseTimes times;
  /// Detailed replay outputs (receiver utilization etc.).
  ReplayReport replay;
  NetworkSummary net;
  /// The execution trace (kept for model verification and debugging).
  RunTrace trace;
  /// When JoinConfig::materialize_results is set: the result relation,
  /// partitioned by join key across machines -- chunk m holds the
  /// <join_key, inner_rid> tuples produced on machine m, ready for the next
  /// pipeline operator (Section 7).
  DistributedRelation output;
};

/// The distributed radix hash join of Section 4, executed on a simulated
/// cluster. The data path is real: tuples are partitioned, shipped through
/// the configured transport into per-machine partition stores, repartitioned
/// locally and joined; the returned times are virtual full-scale seconds
/// computed by the discrete-event replay.
class DistributedJoin {
 public:
  /// `cluster` describes the hardware (see cluster/presets.h), `config` the
  /// algorithm parameters. Both are validated in Run.
  DistributedJoin(ClusterConfig cluster, JoinConfig config)
      : cluster_(std::move(cluster)), config_(std::move(config)) {}

  /// Joins `inner` with `outer`. Both must be fragmented over exactly
  /// cluster().num_machines machines and share one tuple width. Fails with
  /// ResourceExhausted if the workload does not fit the cluster's memory
  /// (e.g. the paper's 2 x 4096 M-tuple join on two 128 GB machines).
  StatusOr<JoinRunResult> Run(const DistributedRelation& inner,
                              const DistributedRelation& outer);

  const ClusterConfig& cluster() const { return cluster_; }
  const JoinConfig& config() const { return config_; }

 private:
  /// Greedy inter-machine task migration for skewed workloads (the future
  /// work of Sections 6.5/8): whole build/probe tasks move from the machine
  /// with the latest estimated finish time to the earliest one, as long as
  /// the pairwise makespan (including the data-transfer delay on the
  /// receiver) improves. Mutates the per-machine task lists and
  /// stolen_in_bytes counters of `trace`.
  void RebalanceTasks(RunTrace* trace) const;

  ClusterConfig cluster_;
  JoinConfig config_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_DISTRIBUTED_JOIN_H_
