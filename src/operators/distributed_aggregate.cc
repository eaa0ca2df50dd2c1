#include "operators/distributed_aggregate.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "join/shuffle.h"

namespace rdmajoin {

StatusOr<AggregateRunResult> DistributedAggregate::Run(
    const DistributedRelation& input) {
  // Histograms and the network pass over the one input relation. The
  // aggregation consumes partitions directly: no local pass is recorded.
  AggregateRunResult result;
  auto shuffled = Shuffle(cluster_, config_, {&input},
                          [this] { return RadixPartitioning(config_); }, &result.trace);
  RDMAJOIN_RETURN_IF_ERROR(shuffled.status());
  // The network-pass replay runs beside the local aggregation.
  OverlappedReplay replay(cluster_, config_, result.trace);
  result.net = shuffled->net;
  const uint32_t nm = cluster_.num_machines;
  const uint32_t parts = static_cast<uint32_t>(shuffled->assignment.size());

  // Machine-local hash aggregation of each assigned partition.
  for (uint32_t m = 0; m < nm; ++m) {
    MachineTrace& mt = result.trace.machines[m];
    Relation output_chunk(kNarrowTupleBytes);
    for (uint32_t p = 0; p < parts; ++p) {
      if (shuffled->assignment[p] != m) continue;
      const Relation& part = shuffled->stores[m]->Rel(p, 0);
      if (part.empty()) continue;
      // The aggregation table is built once per partition at build speed;
      // no probe side exists.
      mt.tasks.push_back(BuildProbeTask{static_cast<double>(part.size_bytes()), 0.0,
                                        static_cast<double>(part.size_bytes())});
      std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> groups;
      groups.reserve(part.num_tuples());
      for (uint64_t i = 0; i < part.num_tuples(); ++i) {
        auto& [count, sum] = groups[part.Key(i)];
        ++count;
        sum += part.Rid(i);
      }
      // Emit groups in ascending key order: the materialized output feeds
      // byte-compared artifacts, so the hash table's iteration order must
      // not reach it (the determinism contract, docs/correctness.md).
      std::vector<std::pair<uint64_t, std::pair<uint64_t, uint64_t>>> sorted;
      sorted.reserve(groups.size());
      // lint: order-insensitive(drained into a vector and sorted by key below)
      for (const auto& [key, agg] : groups) sorted.emplace_back(key, agg);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [key, agg] : sorted) {
        ++result.stats.groups;
        result.stats.total_count += agg.first;
        result.stats.value_sum += agg.second;
        result.stats.group_key_sum += key;
        if (config_.materialize_results) output_chunk.Append(key, agg.second);
      }
    }
    if (config_.materialize_results) {
      mt.materialized_bytes = output_chunk.size_bytes();
      result.output.chunks.push_back(std::move(output_chunk));
    }
  }

  result.replay = replay.Finish();
  result.times = result.replay.phases;
  return result;
}

}  // namespace rdmajoin
