#include "cluster/presets.h"

#include "util/units.h"

namespace rdmajoin {

namespace {

/// Message size from which a single stream can saturate the port; with the
/// base latency on top, both networks reach full bandwidth at ~8 KiB
/// messages as in Figure 3. The fabric's message-rate limit derives from it.
constexpr double kFullBandwidthMessageBytes = 4.0 * 1024;

FabricConfig InfinibandFabric(uint32_t num_hosts, double bandwidth,
                              double congestion_per_host) {
  FabricConfig f;
  f.num_hosts = num_hosts;
  f.egress_bytes_per_sec = bandwidth;
  f.ingress_bytes_per_sec = bandwidth;
  f.message_rate_per_host = bandwidth / kFullBandwidthMessageBytes;
  f.congestion_bytes_per_sec_per_extra_host = congestion_per_host;
  f.base_latency_seconds = 2e-6;
  return f;
}

}  // namespace

ClusterConfig QdrCluster(uint32_t num_machines, uint32_t cores_per_machine) {
  ClusterConfig c;
  c.name = "QDR cluster";
  c.num_machines = num_machines;
  c.cores_per_machine = cores_per_machine;
  // 128 GB (decimal, as data sizes are quoted): with OS and buffer overheads
  // this reproduces the paper's note that 2 x 4096 M tuples do not fit on
  // two machines (Section 6.4.1).
  c.memory_per_machine_bytes = 128000000000ull;
  c.reserve_receiver_core = true;
  c.transport = TransportKind::kRdmaChannel;
  c.interleave = InterleavePolicy::kInterleaved;
  c.fabric = InfinibandFabric(num_machines, 3.4e9, 110e6);
  c.costs = CostModel{};
  return c;
}

ClusterConfig FdrCluster(uint32_t num_machines, uint32_t cores_per_machine) {
  ClusterConfig c;
  c.name = "FDR cluster";
  c.num_machines = num_machines;
  c.cores_per_machine = cores_per_machine;
  c.memory_per_machine_bytes = 512000000000ull;
  c.reserve_receiver_core = true;
  c.transport = TransportKind::kRdmaChannel;
  c.interleave = InterleavePolicy::kInterleaved;
  c.fabric = InfinibandFabric(num_machines, 6.0e9, 0.0);
  c.costs = CostModel{};
  return c;
}

ClusterConfig QpiServer(uint32_t sockets, uint32_t cores_per_socket) {
  ClusterConfig c;
  c.name = "multi-core server (QPI)";
  c.num_machines = sockets;
  c.cores_per_machine = cores_per_socket;
  // 512 GB in the whole box; attribute an even share to each socket.
  c.memory_per_machine_bytes = 512000000000ull / sockets;
  // Remote stores are plain one-sided writes; every core partitions.
  c.reserve_receiver_core = false;
  c.transport = TransportKind::kRdmaMemory;
  c.interleave = InterleavePolicy::kInterleaved;
  FabricConfig f;
  f.num_hosts = sockets;
  f.egress_bytes_per_sec = 8.4e9;  // Measured per-core remote-write peak (Sec. 6.3).
  f.ingress_bytes_per_sec = 8.4e9;
  f.message_rate_per_host = 0.0;  // Loads/stores have no message-rate limit.
  f.congestion_bytes_per_sec_per_extra_host = 0.0;
  f.base_latency_seconds = 100e-9;
  c.fabric = f;
  c.costs = CostModel{};
  // The baseline's first and second partitioning passes use SIMD/AVX
  // (Section 6.1), which the cluster implementation does not.
  c.costs.partition_bytes_per_sec = 1100e6;
  // QPI stores are plain memory writes: no HCA, no page pinning, no
  // registration cost.
  c.costs.reg_base_seconds = 0;
  c.costs.reg_per_page_seconds = 0;
  return c;
}

ClusterConfig IpoibCluster(uint32_t num_machines, uint32_t cores_per_machine) {
  ClusterConfig c = FdrCluster(num_machines, cores_per_machine);
  c.name = "FDR cluster (TCP over IPoIB)";
  c.transport = TransportKind::kTcp;
  c.tcp = TcpParams{};
  return c;
}

namespace {

struct Preset {
  const char* name;
  ClusterConfig (*make)(uint32_t, uint32_t);
};

constexpr Preset kPresets[] = {{"qdr", QdrCluster},
                               {"fdr", FdrCluster},
                               {"qpi", QpiServer},
                               {"ipoib", IpoibCluster}};

}  // namespace

const std::vector<std::string>& PresetClusterNames() {
  static const std::vector<std::string>* const names = [] {
    auto* v = new std::vector<std::string>;
    for (const Preset& p : kPresets) v->push_back(p.name);
    return v;
  }();
  return *names;
}

StatusOr<ClusterConfig> PresetCluster(std::string_view name, uint32_t machines,
                                      uint32_t cores) {
  // QpiServer divides the box's memory by the socket count.
  if (machines == 0) {
    return Status::InvalidArgument("cluster needs at least one machine");
  }
  for (const Preset& p : kPresets) {
    if (name != p.name) continue;
    ClusterConfig c = p.make(machines, cores);
    RDMAJOIN_RETURN_IF_ERROR(c.Validate());
    return c;
  }
  std::string known;
  for (const std::string& n : PresetClusterNames()) {
    known += (known.empty() ? "" : "|") + n;
  }
  return Status::InvalidArgument("unknown cluster preset '" + std::string(name) +
                                 "' (expected one of " + known + ")");
}

}  // namespace rdmajoin
