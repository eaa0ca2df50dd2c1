#ifndef RDMAJOIN_CLUSTER_CLUSTER_H_
#define RDMAJOIN_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <string>

#include "cluster/cost_model.h"
#include "sim/fabric.h"
#include "transport/transport_kind.h"
#include "util/status.h"

namespace rdmajoin {

/// TCP/IPoIB cost parameters (used when transport == kTcp). Calibrated to the
/// paper's observations: IPoIB sustains only 1.8 GB/s on the FDR fabric, each
/// message pays a kernel crossing, and the payload is copied through
/// intermediate buffers by the sending CPU.
struct TcpParams {
  /// Point-to-point IPoIB bandwidth (the paper measured 1.8 GB/s).
  double bytes_per_sec = 1.8e9;
  /// Kernel crossing per message, paid by the sending and receiving CPU.
  double per_message_seconds = 25e-6;
  /// Rate of the sender-side copy through the socket buffer.
  double sender_copy_bytes_per_sec = 3.0e9;
  /// Effective rate at which one receiver core moves data through the TCP
  /// stack (interrupt handling + checksum + copy out of kernel buffers).
  /// This, not the link, bounds IPoIB throughput under all-to-all load.
  double receiver_bytes_per_sec = 1.5e9;
};

/// Hardware description of one simulated deployment (a row of Table 2 plus
/// the network parameters of Eq. 15).
struct ClusterConfig {
  std::string name = "cluster";
  uint32_t num_machines = 4;
  uint32_t cores_per_machine = 8;
  /// Full-scale memory per machine, bytes (Table 2: 128 GB QDR, 512 GB FDR).
  uint64_t memory_per_machine_bytes = 128ull << 30;
  /// If true, one core per machine is dedicated to draining incoming
  /// two-sided transfers (the paper's model: NC/M - 1 partitioning threads).
  bool reserve_receiver_core = true;

  TransportKind transport = TransportKind::kRdmaChannel;
  InterleavePolicy interleave = InterleavePolicy::kInterleaved;
  TcpParams tcp;

  FabricConfig fabric;
  CostModel costs;

  /// Threads that partition and send during the network pass.
  uint32_t PartitioningThreads() const {
    if (reserve_receiver_core && cores_per_machine > 1) return cores_per_machine - 1;
    return cores_per_machine;
  }
  uint32_t TotalCores() const { return num_machines * cores_per_machine; }
  /// Bytes per second one machine's port moves: the IPoIB rate under TCP,
  /// the fabric's effective egress otherwise.
  double PortBytesPerSec() const {
    return transport == TransportKind::kTcp ? tcp.bytes_per_sec
                                            : fabric.EffectiveEgress();
  }

  Status Validate() const;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_CLUSTER_CLUSTER_H_
