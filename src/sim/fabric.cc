#include "sim/fabric.h"

namespace rdmajoin {

Status FabricConfig::Validate() const {
  if (num_hosts == 0) return Status::InvalidArgument("fabric needs at least one host");
  if (egress_bytes_per_sec <= 0 || ingress_bytes_per_sec <= 0) {
    return Status::InvalidArgument("fabric port capacities must be positive");
  }
  if (EffectiveEgress() <= 0) {
    return Status::InvalidArgument(
        "congestion term leaves no effective egress bandwidth");
  }
  if (message_rate_per_host < 0 || base_latency_seconds < 0) {
    return Status::InvalidArgument("message rate and latency must be non-negative");
  }
  return Status::OK();
}

}  // namespace rdmajoin
