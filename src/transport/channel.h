#ifndef RDMAJOIN_TRANSPORT_CHANNEL_H_
#define RDMAJOIN_TRANSPORT_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/memory_space.h"
#include "join/join_config.h"
#include "rdma/buffer_pool.h"
#include "rdma/verbs.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rdmajoin {

/// Destination-side consumer of shipped partition data. One sink per
/// machine; implemented by the join executor's partition store.
class PartitionSink {
 public:
  virtual ~PartitionSink() = default;
  /// Appends `bytes` of tuples to (partition, relation) storage.
  /// relation: 0 = inner (R), 1 = outer (S). The pair comes from a wire
  /// header, so a sink rejects one it has no storage for with an error
  /// status, which aborts the Ship that delivered it.
  virtual Status Deliver(uint32_t partition, uint32_t relation,
                         const uint8_t* tuples, uint64_t bytes) = 0;
};

/// Per-Ship recovery record: how many times the transport had to re-post the
/// send and how much virtual delay (timeouts plus exponential backoff) the
/// recovery cost. The exchange copies this into the trace's SendRecord so the
/// timing replay can charge the delay to the fault_recovery bucket. All zero
/// on the fault-free path.
struct ShipReport {
  uint32_t retries = 0;
  double delay_seconds = 0;
};

/// Source-side view of the network used by the partitioning threads: a
/// filled buffer is handed to Ship, which moves its payload into the
/// destination machine's partition storage according to the configured
/// transport semantics.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Ships `buf->used` payload bytes (stored from offset kWireHeaderBytes
  /// in two-sided mode, from offset 0 otherwise) to machine `dst`. Returns
  /// the number of bytes put on the wire (payload plus header, if any).
  /// On error the caller still owns `buf` and must release it exactly once.
  /// `report`, when non-null, receives the retry/delay cost of this Ship.
  virtual StatusOr<uint64_t> Ship(uint32_t dst, uint32_t partition, uint32_t relation,
                                  RegisteredBuffer* buf,
                                  ShipReport* report = nullptr) = 0;
  /// Byte offset at which the partitioner must start writing tuples.
  virtual uint64_t payload_offset() const = 0;
};

/// Aggregate transport bookkeeping the timing replay consumes.
struct TransportStats {
  /// Virtual seconds spent registering destination regions before the
  /// network pass (relevant for one-sided memory semantics, Section 4.2.2).
  std::vector<double> setup_registration_seconds;
  /// Actual payload bytes each machine received via two-sided messages and
  /// had to copy out of receive buffers.
  std::vector<uint64_t> recv_bytes;
  std::vector<uint64_t> recv_messages;
};

/// Owns the per-machine RDMA devices, queue pairs, receive rings and staging
/// regions for one join execution, and hands out the per-machine Channel.
class TransportNetwork {
 public:
  /// `incoming_bytes[dst][src]` is the expected payload volume from src to
  /// dst (used to size one-sided staging regions; may be empty for other
  /// transports). `sinks[m]` consumes data arriving at machine m.
  /// `memories[m]` enforces machine m's memory budget (entries may be null).
  static StatusOr<std::unique_ptr<TransportNetwork>> Create(
      const ClusterConfig& cluster, const JoinConfig& config, uint32_t tuple_bytes,
      const std::vector<std::vector<uint64_t>>& incoming_bytes,
      std::vector<PartitionSink*> sinks, std::vector<MemorySpace*> memories);

  ~TransportNetwork();
  TransportNetwork(const TransportNetwork&) = delete;
  TransportNetwork& operator=(const TransportNetwork&) = delete;

  Channel* channel(uint32_t src) { return channels_[src].get(); }
  RdmaDevice* device(uint32_t m) { return devices_[m].get(); }
  const TransportStats& stats() const { return stats_; }

  /// The queue pair machine `reader` uses to issue one-sided operations
  /// against machine `peer` (RDMA READ pulls), and its completion queue.
  QueuePair* reader_qp(uint32_t reader, uint32_t peer) {
    return link(reader, peer).src_qp.get();
  }
  CompletionQueue* reader_cq(uint32_t reader, uint32_t peer) {
    return link(reader, peer).src_send_cq.get();
  }

 private:
  friend class RdmaChannelImpl;
  friend class RdmaMemoryImpl;
  friend class TcpChannelImpl;

  TransportNetwork() = default;
  Status Init(const ClusterConfig& cluster, const JoinConfig& config,
              uint32_t tuple_bytes,
              const std::vector<std::vector<uint64_t>>& incoming_bytes,
              std::vector<PartitionSink*> sinks, std::vector<MemorySpace*> memories);

  ClusterConfig cluster_;
  JoinConfig config_;
  uint64_t buffer_bytes_ = 0;  // actual size of one RDMA/send buffer
  std::vector<PartitionSink*> sinks_;
  std::vector<MemorySpace*> memories_;
  std::vector<std::unique_ptr<RdmaDevice>> devices_;
  std::vector<std::unique_ptr<Channel>> channels_;
  TransportStats stats_;

  // --- Two-sided (channel semantics) state ---
  struct Link {
    std::unique_ptr<QueuePair> src_qp;
    std::unique_ptr<QueuePair> dst_qp;
    std::unique_ptr<CompletionQueue> src_send_cq;
    std::unique_ptr<CompletionQueue> src_recv_cq;
    std::unique_ptr<CompletionQueue> dst_send_cq;
    std::unique_ptr<CompletionQueue> dst_recv_cq;
    std::unique_ptr<uint8_t[]> recv_ring;  // recv_depth * buffer_bytes, dst side
    MemoryRegion recv_mr;
    uint32_t recv_depth = 0;
  };
  /// links_[src * NM + dst]; only src != dst populated.
  std::vector<Link> links_;
  Link& link(uint32_t src, uint32_t dst) {
    return links_[src * cluster_.num_machines + dst];
  }

  // --- One-sided (memory semantics) state ---
  struct StagingRegion {
    std::unique_ptr<uint8_t[]> data;
    MemoryRegion mr;
    uint64_t capacity = 0;
    /// Next write offset per source machine.
    std::vector<uint64_t> cursor;
    /// Base offset per source machine (prefix sums of expected bytes).
    std::vector<uint64_t> base;
  };
  std::vector<StagingRegion> staging_;  // per destination machine

  // Reserved (virtual) bytes per machine, released in the destructor.
  std::vector<uint64_t> reserved_bytes_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_TRANSPORT_CHANNEL_H_
