#include "model/analytical_model.h"

#include <algorithm>

#include "util/units.h"

namespace rdmajoin {

Status ModelParams::Validate() const {
  if (num_machines == 0 || cores_per_machine == 0 || partitioning_threads == 0) {
    return Status::InvalidArgument("machine/core counts must be positive");
  }
  if (partitioning_threads > cores_per_machine) {
    return Status::InvalidArgument("more partitioning threads than cores");
  }
  if (ps_part <= 0 || net_max <= 0 || hb_thread <= 0 || hp_thread <= 0 ||
      hist_thread <= 0) {
    return Status::InvalidArgument("model speeds must be positive");
  }
  if (num_passes == 0) return Status::InvalidArgument("need at least one pass");
  return Status::OK();
}

ModelParams ParamsFromCluster(const ClusterConfig& cluster, uint64_t inner_bytes,
                              uint64_t outer_bytes, uint32_t num_passes) {
  ModelParams p;
  p.inner_mb = static_cast<double>(inner_bytes) / kMB;
  p.outer_mb = static_cast<double>(outer_bytes) / kMB;
  p.num_machines = cluster.num_machines;
  p.cores_per_machine = cluster.cores_per_machine;
  p.partitioning_threads = cluster.PartitioningThreads();
  p.ps_part = cluster.costs.partition_bytes_per_sec / kMB;
  p.net_max = cluster.PortBytesPerSec() / kMB;
  p.hb_thread = cluster.costs.build_bytes_per_sec / kMB;
  p.hp_thread = cluster.costs.probe_bytes_per_sec / kMB;
  p.hist_thread = cluster.costs.histogram_bytes_per_sec / kMB;
  p.num_passes = num_passes;
  return p;
}

double PsNetwork(const ModelParams& p) {
  // Eq. 1: the outgoing bandwidth is shared by the partitioning threads.
  return p.net_max / p.partitioning_threads;
}

bool IsNetworkBound(const ModelParams& p) {
  if (p.num_machines <= 1) return false;
  // Eq. 2: remote tuples ((NM-1)/NM of the input) are produced faster than
  // each thread's share of the network can carry them.
  const double remote_fraction =
      static_cast<double>(p.num_machines - 1) / p.num_machines;
  return remote_fraction * p.ps_part > PsNetwork(p);
}

double PsThreadNetworkBound(const ModelParams& p) {
  // Eq. 4: 1/NM of the tuples are written locally at psPart, the remaining
  // (NM-1)/NM must drain through the thread's network share.
  const double nm = p.num_machines;
  const double ps_net = PsNetwork(p);
  return nm * p.ps_part * ps_net / ((nm - 1) * p.ps_part + ps_net);
}

double Ps1(const ModelParams& p) {
  if (p.num_machines <= 1) {
    // Degenerate single-machine case: every partition is local and all
    // partitioning threads run at full speed.
    return static_cast<double>(p.partitioning_threads) * p.ps_part;
  }
  const double threads =
      static_cast<double>(p.num_machines) * p.partitioning_threads;
  if (!IsNetworkBound(p)) {
    return threads * p.ps_part;  // Eq. 3
  }
  return threads * PsThreadNetworkBound(p);  // Eq. 5
}

double Ps2(const ModelParams& p) {
  // Eq. 6: local passes use every core at full partitioning speed.
  return static_cast<double>(p.num_machines) * p.cores_per_machine * p.ps_part;
}

double PartitioningSeconds(const ModelParams& p) {
  // Eq. 7.
  const double data = p.inner_mb + p.outer_mb;
  return data * (1.0 / Ps1(p) + static_cast<double>(p.num_passes - 1) / Ps2(p));
}

double BuildSpeed(const ModelParams& p) {
  // Eq. 8.
  return static_cast<double>(p.num_machines) * p.cores_per_machine * p.hb_thread;
}

double BuildSeconds(const ModelParams& p) { return p.inner_mb / BuildSpeed(p); }

double ProbeSpeed(const ModelParams& p) {
  // Eq. 10.
  return static_cast<double>(p.num_machines) * p.cores_per_machine * p.hp_thread;
}

double ProbeSeconds(const ModelParams& p) { return p.outer_mb / ProbeSpeed(p); }

double HistogramSeconds(const ModelParams& p) {
  const double speed =
      static_cast<double>(p.num_machines) * p.cores_per_machine * p.hist_thread;
  return (p.inner_mb + p.outer_mb) / speed;
}

ModelEstimate Estimate(const ModelParams& p) {
  ModelEstimate e;
  e.network_bound = IsNetworkBound(p);
  e.histogram_seconds = HistogramSeconds(p);
  const double data = p.inner_mb + p.outer_mb;
  e.network_partition_seconds = data / Ps1(p);
  e.local_partition_seconds = data * static_cast<double>(p.num_passes - 1) / Ps2(p);
  e.build_probe_seconds = BuildSeconds(p) + ProbeSeconds(p);
  return e;
}

double OptimalPartitioningThreads(const ModelParams& p) {
  if (p.num_machines <= 1) return p.cores_per_machine;
  // Eq. 12: (NC/M - 1) = NM/(NM-1) * netmax/psPart.
  const double nm = p.num_machines;
  return nm / (nm - 1.0) * p.net_max / p.ps_part;
}

double MaxMachinesForFullBuffers(const ModelParams& p, uint32_t np1,
                                 double rdma_buffer_mb) {
  // Eq. 13: NM <= |R| / (NP1 * threads * S_buffer).
  return p.inner_mb /
         (static_cast<double>(np1) * p.partitioning_threads * rdma_buffer_mb);
}

bool SatisfiesCoreAssignment(const ModelParams& p, uint32_t np1) {
  // Eq. 14: NC/M * NM <= NP1.
  return static_cast<uint64_t>(p.cores_per_machine) * p.num_machines <= np1;
}

}  // namespace rdmajoin
