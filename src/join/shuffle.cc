#include "join/shuffle.h"

#include "cluster/memory_space.h"
#include "join/assignment.h"
#include "join/histogram.h"
#include "transport/collectives.h"
#include "util/logging.h"

namespace rdmajoin {

StatusOr<ShufflePartitioning> RadixPartitioning(const JoinConfig& config) {
  ShufflePartitioning out;
  out.partitioner = std::make_unique<RadixPartitioner>(config.network_radix_bits);
  return out;
}

StatusOr<ShuffleResult> Shuffle(
    const ClusterConfig& cluster, const JoinConfig& config,
    const std::vector<const DistributedRelation*>& inputs,
    const std::function<StatusOr<ShufflePartitioning>()>& partition_by,
    RunTrace* trace) {
  RDMAJOIN_RETURN_IF_ERROR(cluster.Validate());
  RDMAJOIN_RETURN_IF_ERROR(config.Validate());
  const uint32_t nm = cluster.num_machines;
  for (const DistributedRelation* rel : inputs) {
    if (rel->chunks.size() != nm) {
      return Status::InvalidArgument(
          "relations must be fragmented over exactly num_machines machines");
    }
    if (rel->tuple_bytes() != inputs[0]->tuple_bytes()) {
      return Status::InvalidArgument("relations must share one tuple width");
    }
  }
  trace->scale_up = config.scale_up;
  trace->machines.resize(nm);

  // Machine memory budgets; the loaded input chunks occupy memory for the
  // whole pass (the paper materializes the result later in the pipeline).
  std::vector<uint64_t> input_bytes(nm, 0);
  for (const DistributedRelation* rel : inputs) {
    for (uint32_t m = 0; m < nm; ++m) input_bytes[m] += rel->chunks[m].size_bytes();
  }
  std::vector<MemorySpace> memories;
  memories.reserve(nm);
  for (uint32_t m = 0; m < nm; ++m) {
    memories.emplace_back(cluster.memory_per_machine_bytes);
  }
  std::vector<std::unique_ptr<ScopedReservation>> reservations;
  std::vector<MemorySpace*> memory_ptrs;
  std::vector<ScopedReservation*> reservation_ptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    RDMAJOIN_RETURN_IF_ERROR(reservations[m]->Add(static_cast<uint64_t>(
        static_cast<double>(input_bytes[m]) * config.scale_up)));
    memory_ptrs.push_back(&memories[m]);
    reservation_ptrs.push_back(reservations[m].get());
  }

  auto partitioning = partition_by();
  RDMAJOIN_RETURN_IF_ERROR(partitioning.status());
  const Partitioner& partitioner = *partitioning->partitioner;
  const uint32_t parts = partitioner.num_partitions();

  // ---- Histograms (thread -> machine -> global, Section 4.1). ----
  std::vector<GenericHistograms> hists;
  hists.reserve(inputs.size());
  for (const DistributedRelation* rel : inputs) {
    hists.push_back(ComputeHistogramsWith(*rel, partitioner));
  }
  // Exchange the machine-level histograms over the control plane (verbs
  // all-gather) and reduce them into the global histograms every machine
  // needs for buffer sizing and the machine-partition assignment.
  const uint64_t histogram_words = uint64_t{parts} * inputs.size();
  if (nm > 1) {
    auto collectives =
        CollectiveNetwork::Create(nm, histogram_words, cluster.costs, config.validator);
    RDMAJOIN_RETURN_IF_ERROR(collectives.status());
    std::vector<std::vector<uint64_t>> contributions(nm);
    for (uint32_t m = 0; m < nm; ++m) {
      contributions[m].reserve(histogram_words);
      for (const GenericHistograms& h : hists) {
        contributions[m].insert(contributions[m].end(), h.per_machine[m].begin(),
                                h.per_machine[m].end());
      }
    }
    auto reduced = (*collectives)->AllReduceSum(contributions);
    RDMAJOIN_RETURN_IF_ERROR(reduced.status());
    for (size_t r = 0; r < hists.size(); ++r) {
      hists[r].global.assign(reduced->begin() + r * parts,
                             reduced->begin() + (r + 1) * parts);
    }
  }
  const double exchange_seconds = CollectiveNetwork::ExchangeSeconds(
      nm, (histogram_words + partitioning->control_words) * sizeof(uint64_t),
      cluster.PortBytesPerSec(), cluster.fabric.base_latency_seconds);
  for (uint32_t m = 0; m < nm; ++m) {
    trace->machines[m].histogram_bytes = input_bytes[m];
    trace->machines[m].histogram_exchange_seconds = exchange_seconds;
  }

  // Partition-to-machine assignment.
  ShuffleResult result;
  if (config.assignment == AssignmentPolicy::kRoundRobin) {
    result.assignment = RoundRobinAssignment(parts, nm);
  } else {
    std::vector<uint64_t> combined(parts, 0);
    for (const GenericHistograms& h : hists) {
      for (uint32_t p = 0; p < parts; ++p) combined[p] += h.global[p];
    }
    result.assignment = SkewAwareAssignment(combined, nm);
  }
  RDMAJOIN_LOG(kDebug) << "histograms exchanged over " << nm << " machines ("
                       << parts << " partitions)";

  // ---- The network partitioning pass (Section 4.2). ----
  std::vector<std::vector<uint64_t>> global_counts;
  std::vector<std::vector<std::vector<uint64_t>>> machine_counts;
  global_counts.reserve(hists.size());
  machine_counts.reserve(hists.size());
  for (GenericHistograms& h : hists) {
    global_counts.push_back(std::move(h.global));
    machine_counts.push_back(std::move(h.per_machine));
  }
  Exchange exchange(cluster, config, &partitioner, result.assignment,
                    std::move(global_counts), std::move(machine_counts));
  auto exchanged = exchange.Run(inputs, memory_ptrs, reservation_ptrs, trace);
  RDMAJOIN_RETURN_IF_ERROR(exchanged.status());
  result.stores = std::move(exchanged->stores);
  result.net.virtual_wire_bytes = exchanged->virtual_wire_bytes;
  result.net.messages_sent = exchanged->messages_sent;
  result.net.pool_buffers_created = exchanged->pool_buffers_created;
  result.net.pool_acquisitions = exchanged->pool_acquisitions;
  result.net.setup_registration_seconds = exchanged->max_setup_registration_seconds;
  return result;
}

}  // namespace rdmajoin
