#ifndef RDMAJOIN_JOIN_EXCHANGE_H_
#define RDMAJOIN_JOIN_EXCHANGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/memory_space.h"
#include "join/join_config.h"
#include "join/partitioner.h"
#include "timing/trace.h"
#include "transport/channel.h"
#include "util/statusor.h"
#include "workload/relation.h"

namespace rdmajoin {

/// A raw write window [next, end) over tuple storage. The exchange's
/// per-tuple loops copy each tuple to `next` of its partition's window; an
/// exhausted window (next == end) is the slow path.
struct WriteWindow {
  uint8_t* next = nullptr;
  uint8_t* end = nullptr;
};

/// Per-machine storage for the partitions a machine is assigned. Every
/// (partition, relation) slot is sized from the global histogram (Section
/// 4.1) before the pass, so local tuples and remote deliveries are written
/// at known offsets. A slot's num_tuples() is its write cursor, and after a
/// correct pass every slot holds exactly its histogram count.
class PartitionStore : public PartitionSink {
 public:
  /// Storage for `num_partitions` partitions of `num_relations` relations of
  /// `tuple_bytes`-wide tuples.
  PartitionStore(uint32_t tuple_bytes, uint32_t num_partitions,
                 uint32_t num_relations);

  /// Allocates the (partition, relation) slots for a partition this machine
  /// owns, each sized to its exact global-histogram count.
  void Prepare(uint32_t partition, const std::vector<uint64_t>& tuples_per_relation);

  /// Appends delivered tuples at the slot's cursor. The (partition,
  /// relation) pair comes off the wire: an unprepared or out-of-range slot,
  /// a ragged byte count or more tuples than the slot's histogram count is
  /// a Status::Internal histogram mismatch, never a write.
  Status Deliver(uint32_t partition, uint32_t relation, const uint8_t* tuples,
                 uint64_t bytes) override;

  /// Hands out the unwritten rest of a prepared slot as a raw window, for a
  /// writer that fills it tuple by tuple; CloseWindow records how far it
  /// got. No Deliver may target the slot while its window is open.
  WriteWindow OpenWindow(uint32_t partition, uint32_t relation);
  void CloseWindow(uint32_t partition, uint32_t relation, const WriteWindow& window);

  /// OK iff every prepared slot holds exactly its histogram count.
  Status CheckFilled() const;

  /// The (partition, relation) slot; the partition must be prepared.
  Relation& Rel(uint32_t partition, uint32_t relation);
  bool IsPrepared(uint32_t partition) const { return prepared_[partition]; }
  uint32_t num_relations() const { return num_relations_; }

 private:
  struct Slot {
    Relation rel;
    /// The global-histogram count this slot must end up holding.
    uint64_t expected = 0;
  };

  Slot& At(uint32_t partition, uint32_t relation) {
    return slots_[static_cast<size_t>(partition) * num_relations_ + relation];
  }
  const Slot& At(uint32_t partition, uint32_t relation) const {
    return slots_[static_cast<size_t>(partition) * num_relations_ + relation];
  }

  uint32_t tuple_bytes_;
  uint32_t num_relations_;
  /// One flat partition x relation array; the slots of partitions owned
  /// elsewhere stay empty and unprepared.
  std::vector<Slot> slots_;
  std::vector<bool> prepared_;
};

/// Tracks memory reservations against a MemorySpace, releasing on scope exit.
class ScopedReservation {
 public:
  explicit ScopedReservation(MemorySpace* space) : space_(space) {}
  ~ScopedReservation();
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  Status Add(uint64_t bytes);

 private:
  MemorySpace* space_;
  uint64_t bytes_ = 0;
};

/// The network partitioning pass of Section 4.2, generalized over the
/// partition function and the number of input relations so that the radix
/// hash join, the distributed aggregation and the sort-merge join all share
/// it: every partitioning thread scans its slice of each input relation,
/// appends local tuples to the machine's partition store, fills pooled
/// RDMA buffers for remote partitions, and ships full buffers through the
/// configured transport, recording the execution trace for the timing
/// replay.
class Exchange {
 public:
  struct Result {
    /// stores[m] holds the partitions assigned to machine m.
    std::vector<std::unique_ptr<PartitionStore>> stores;
    /// Network bookkeeping of the pass.
    uint64_t messages_sent = 0;
    double virtual_wire_bytes = 0;
    uint64_t pool_buffers_created = 0;
    uint64_t pool_acquisitions = 0;
    double max_setup_registration_seconds = 0;
  };

  /// `assignment[p]` is the machine that processes partition p;
  /// `global_counts[rel][p]` the exact global tuple count (from the
  /// histogram exchange) that sizes each partition store slot. A count that
  /// disagrees with the inputs fails the pass with a histogram mismatch.
  /// `machine_counts[rel][m][p]`, the per-machine histograms behind those
  /// counts, size the staging of the one-sided transports (kRdmaMemory,
  /// kRdmaRead); left empty, Run scans the inputs for them when needed.
  Exchange(const ClusterConfig& cluster, const JoinConfig& config,
           const Partitioner* partitioner, std::vector<uint32_t> assignment,
           std::vector<std::vector<uint64_t>> global_counts,
           std::vector<std::vector<std::vector<uint64_t>>> machine_counts = {});

  /// Runs the pass over `inputs` (one or more relations fragmented across
  /// the cluster). `memories[m]` is machine m's budget; `reservations[m]`
  /// receives this pass's reservations (stores, RDMA buffers, rings).
  /// `trace->machines[m]` is filled with the thread traces and receiver
  /// bookkeeping of machine m.
  StatusOr<Result> Run(const std::vector<const DistributedRelation*>& inputs,
                       std::vector<MemorySpace*> memories,
                       std::vector<ScopedReservation*> reservations,
                       RunTrace* trace);

 private:
  /// Sender-driven pass (two-sided, one-sided WRITE and TCP transports):
  /// remote tuples fill pooled RDMA buffers that ship when full.
  Status RunPush(const std::vector<const DistributedRelation*>& inputs,
                 std::vector<ScopedReservation*> reservations, TransportNetwork& net,
                 RunTrace* trace, Result* result);

  /// Receiver-driven variant for TransportKind::kRdmaRead (Section 3.2.2's
  /// other one-sided primitive): every machine first partitions its input
  /// into registered local staging regions (local tuples go straight to the
  /// store), then each destination machine pulls its partitions from every
  /// peer's staging with chunked RDMA READs. The registration cost of the
  /// staged data is charged to the source machines; no receiver copies.
  Status RunPull(const std::vector<const DistributedRelation*>& inputs,
                 std::vector<ScopedReservation*> reservations, TransportNetwork& net,
                 RunTrace* trace, Result* result);

  const ClusterConfig& cluster_;
  const JoinConfig& config_;
  const Partitioner* partitioner_;
  std::vector<uint32_t> assignment_;
  std::vector<std::vector<uint64_t>> global_counts_;
  /// [relation][machine][partition]; empty unless given or computed.
  std::vector<std::vector<std::vector<uint64_t>>> machine_counts_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_EXCHANGE_H_
