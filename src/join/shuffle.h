#ifndef RDMAJOIN_JOIN_SHUFFLE_H_
#define RDMAJOIN_JOIN_SHUFFLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "join/exchange.h"
#include "join/join_config.h"
#include "join/partitioner.h"
#include "timing/trace.h"
#include "util/status.h"
#include "util/statusor.h"
#include "workload/relation.h"

namespace rdmajoin {

/// Network and buffer-management bookkeeping of one run (full-scale units
/// where noted).
struct NetworkSummary {
  /// Bytes put on the wire, virtual (full-scale).
  double virtual_wire_bytes = 0;
  uint64_t messages_sent = 0;
  /// Send-buffer pool behaviour, summed over machines.
  uint64_t pool_buffers_created = 0;
  uint64_t pool_acquisitions = 0;
  /// Virtual seconds spent registering destination regions up front
  /// (one-sided transport), max over machines.
  double setup_registration_seconds = 0;
};

/// An operator's partition function, chosen once the inputs are validated
/// and reserved.
struct ShufflePartitioning {
  std::unique_ptr<Partitioner> partitioner;
  /// Control-plane words per machine already exchanged to choose the
  /// function (the sort-merge join's key samples). The histogram exchange
  /// charges them together with its own words, as one all-gather.
  uint64_t control_words = 0;
};

/// The radix partitioning of the hash join and the aggregation: the low
/// `config.network_radix_bits` bits of the key, nothing exchanged to pick it.
StatusOr<ShufflePartitioning> RadixPartitioning(const JoinConfig& config);

/// What the shared network pass hands to the operator that ran it.
struct ShuffleResult {
  /// assignment[p]: the machine that owns partition p.
  std::vector<uint32_t> assignment;
  /// stores[m]: the partitions machine m owns, one slot per input relation.
  std::vector<std::unique_ptr<PartitionStore>> stores;
  NetworkSummary net;
};

/// The network pass every distributed operator shares (Sections 4.1-4.2),
/// over one or more input relations:
///   1. validates the cluster, the config and the fragmentation (every input
///      over exactly num_machines machines, one tuple width);
///   2. reserves every machine's input chunks in a fresh MemorySpace;
///   3. calls `partition_by` for the operator's partition function;
///   4. computes every input's per-machine histograms, all-reduces their
///      concatenation over the control plane (CollectiveNetwork) and sets
///      each machine's histogram_bytes and histogram_exchange_seconds;
///   5. assigns partitions to machines, round-robin or skew-aware over the
///      counts summed across the inputs;
///   6. runs Exchange::Run, which fills the rest of `trace`'s network pass;
///      the per-machine histograms of step 4 size its staging, so the pass
///      never scans the inputs for them again.
/// `trace` gets the config's scale_up and one MachineTrace per machine.
StatusOr<ShuffleResult> Shuffle(
    const ClusterConfig& cluster, const JoinConfig& config,
    const std::vector<const DistributedRelation*>& inputs,
    const std::function<StatusOr<ShufflePartitioning>()>& partition_by,
    RunTrace* trace);

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_SHUFFLE_H_
