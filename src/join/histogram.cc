#include "join/histogram.h"

#include "join/partitioner.h"

namespace rdmajoin {

RelationHistograms ComputeHistograms(const DistributedRelation& rel,
                                     uint32_t radix_bits) {
  RelationHistograms h;
  h.radix_bits = radix_bits;
  const uint32_t parts = h.num_partitions();
  h.per_machine.resize(rel.chunks.size());
  h.global.assign(parts, 0);
  for (size_t m = 0; m < rel.chunks.size(); ++m) {
    const Relation& chunk = rel.chunks[m];
    auto& counts = h.per_machine[m];
    counts.assign(parts, 0);
    for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
      ++counts[FirstPassPartition(chunk.Key(i), radix_bits)];
    }
    for (uint32_t p = 0; p < parts; ++p) h.global[p] += counts[p];
  }
  return h;
}

GenericHistograms ComputeHistogramsWith(const DistributedRelation& rel,
                                        const Partitioner& partitioner) {
  return VisitPartitioner(partitioner, [&rel](const auto& part) {
    GenericHistograms h;
    const uint32_t parts = part.num_partitions();
    h.per_machine.resize(rel.chunks.size());
    h.global.assign(parts, 0);
    for (size_t m = 0; m < rel.chunks.size(); ++m) {
      const Relation& chunk = rel.chunks[m];
      auto& counts = h.per_machine[m];
      counts.assign(parts, 0);
      for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
        ++counts[part.PartitionOf(chunk.Key(i))];
      }
      for (uint32_t p = 0; p < parts; ++p) h.global[p] += counts[p];
    }
    return h;
  });
}

}  // namespace rdmajoin
