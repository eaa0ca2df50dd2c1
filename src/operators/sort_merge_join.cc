#include "operators/sort_merge_join.h"

#include <algorithm>

#include "join/partitioner.h"
#include "join/shuffle.h"
#include "operators/radix_sort.h"
#include "operators/sort_utils.h"
#include "transport/collectives.h"

namespace rdmajoin {

StatusOr<JoinRunResult> DistributedSortMergeJoin::Run(
    const DistributedRelation& inner, const DistributedRelation& outer) {
  const uint32_t nm = cluster_.num_machines;
  // ---- Phase 0: splitter selection. ----
  // Every machine contributes an evenly spaced sample of its outer chunk
  // (the larger relation dominates range balance); samples are all-gathered
  // and the quantiles become the range splitters.
  auto sample_splitters = [&]() -> StatusOr<ShufflePartitioning> {
    const uint32_t target_ranges = uint32_t{1} << config_.network_radix_bits;
    const uint64_t samples_per_machine =
        std::max<uint64_t>(16ull * target_ranges / nm, 256);
    std::vector<uint64_t> sample_pool;
    if (nm > 1) {
      auto collectives = CollectiveNetwork::Create(nm, samples_per_machine,
                                                   cluster_.costs, config_.validator);
      RDMAJOIN_RETURN_IF_ERROR(collectives.status());
      std::vector<std::vector<uint64_t>> contributions(nm);
      for (uint32_t m = 0; m < nm; ++m) {
        contributions[m] = SampleKeys(outer.chunks[m], samples_per_machine);
      }
      auto views = (*collectives)->AllGather(contributions);
      RDMAJOIN_RETURN_IF_ERROR(views.status());
      sample_pool = (*views)[0];  // Every machine holds the same pool.
    } else {
      sample_pool = SampleKeys(outer.chunks[0], samples_per_machine);
    }
    ShufflePartitioning out;
    out.partitioner = std::make_unique<RangePartitioner>(
        SplittersFromSamples(std::move(sample_pool), target_ranges - 1));
    out.control_words = samples_per_machine;
    return out;
  };

  // ---- Phase 0 + 1: range histograms, and the network range-partitioning
  // pass (contiguous ranges are dealt out like radix partitions). ----
  JoinRunResult result;
  auto shuffled = Shuffle(cluster_, config_, {&inner, &outer}, sample_splitters,
                          &result.trace);
  RDMAJOIN_RETURN_IF_ERROR(shuffled.status());
  // The network-pass replay runs beside the local sort and merge.
  OverlappedReplay replay(cluster_, config_, result.trace);
  result.net = shuffled->net;
  const uint32_t ranges = static_cast<uint32_t>(shuffled->assignment.size());

  // ---- Phase 2 + 3: local sort of each range, then merge join. Sorting
  // replaces the local radix pass (no local_pass_bytes recorded). ----
  for (uint32_t m = 0; m < nm; ++m) {
    MachineTrace& mt = result.trace.machines[m];
    Relation output_chunk(kNarrowTupleBytes);
    for (uint32_t p = 0; p < ranges; ++p) {
      if (shuffled->assignment[p] != m) continue;
      Relation& rp = shuffled->stores[m]->Rel(p, 0);
      Relation& sp = shuffled->stores[m]->Rel(p, 1);
      mt.sort_bytes += rp.size_bytes() + sp.size_bytes();
      RadixSortByKey(&rp);
      RadixSortByKey(&sp);
      mt.merge_tasks.push_back(
          static_cast<double>(rp.size_bytes() + sp.size_bytes()));
      MergeJoinSorted(rp, sp,
                      [&](uint64_t key, uint64_t inner_rid, uint64_t outer_rid) {
                        result.stats.Count(key, inner_rid);
                        if (config_.materialize_results) {
                          result.stats.pairs.emplace_back(inner_rid, outer_rid);
                          output_chunk.Append(key, inner_rid);
                        }
                      });
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
