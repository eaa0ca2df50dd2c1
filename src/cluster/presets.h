#ifndef RDMAJOIN_CLUSTER_PRESETS_H_
#define RDMAJOIN_CLUSTER_PRESETS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "util/statusor.h"

namespace rdmajoin {

/// Hardware presets mirroring Table 2 of the paper and the network
/// calibration of Eq. 15. All rates are full-scale (paper units); the
/// benches run the same presets the paper's figures use.

/// The ten-node QDR InfiniBand cluster: Intel Xeon E5-2609 (8 cores),
/// 128 GB RAM, measured QDR bandwidth 3.4 GB/s with a congestion penalty of
/// 110 MB/s per additional machine (Eq. 15).
ClusterConfig QdrCluster(uint32_t num_machines, uint32_t cores_per_machine = 8);

/// The four-node FDR InfiniBand cluster: Intel Xeon E5-4650 v2, 512 GB RAM,
/// measured FDR bandwidth 6.0 GB/s, no observable congestion at 4 nodes.
ClusterConfig FdrCluster(uint32_t num_machines, uint32_t cores_per_machine = 8);

/// The high-end 4-socket server of Figure 4, treated as a distributed system
/// (paper Section 7): sockets are "machines" connected by QPI with a
/// measured per-core inter-socket write bandwidth of 8.4 GB/s. Stores to
/// remote NUMA regions are one-sided (no receiver core is reserved, no
/// per-message cost) and the SIMD/AVX-enhanced partitioning passes run
/// slightly faster than on the cluster CPUs.
ClusterConfig QpiServer(uint32_t sockets = 4, uint32_t cores_per_socket = 8);

/// The FDR cluster running the TCP/IP implementation over IPoIB (Figure 5b):
/// 1.8 GB/s effective bandwidth, kernel crossings and intermediate copies.
ClusterConfig IpoibCluster(uint32_t num_machines, uint32_t cores_per_machine = 8);

/// The preset names PresetCluster accepts: qdr, fdr, qpi, ipoib.
const std::vector<std::string>& PresetClusterNames();

/// The one map from a preset name to hardware, for configurations that come
/// from outside the program (command lines, traces). Rejects an unknown name
/// and zero machines before any preset divides by the machine count, and
/// returns the config only once ClusterConfig::Validate() passes.
StatusOr<ClusterConfig> PresetCluster(std::string_view name, uint32_t machines,
                                      uint32_t cores);

}  // namespace rdmajoin

#endif  // RDMAJOIN_CLUSTER_PRESETS_H_
