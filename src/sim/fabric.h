#ifndef RDMAJOIN_SIM_FABRIC_H_
#define RDMAJOIN_SIM_FABRIC_H_

#include <cstdint>

#include "sim/rate_sharing.h"
#include "util/status.h"

namespace rdmajoin {

/// Observer of per-flow achieved-rate segments. The fabric (LinkFabric in
/// sim/link_fabric.h) makes one call per maximal contiguous interval over
/// which a flow moves at one rate under one binding constraint and
/// constraining host. The call comes after the interval has ended, at the
/// flow's next lazy update that finds it moving differently (another rate
/// or label, or after a stall at rate 0), or when the flow drains; a
/// change is therefore reported when the flow is next materialised, not at
/// the instant it happens. Reshares that leave rate and label unchanged --
/// including several reshares at one instant that restore the previous
/// values -- do not split an interval. A flow's intervals are reported in
/// time order; zero-length ones never.
class FlowTelemetry {
 public:
  virtual ~FlowTelemetry() = default;
  /// `flow_id` moved at `rate` bytes/sec from `t0` to `t1` (t1 > t0) between
  /// hosts `src` -> `dst`. `bound` names the fair-share constraint that was
  /// binding when the rate was assigned and `bound_host` the host owning it
  /// (src for egress/message-rate, dst for ingress) -- the reshare labels
  /// every flow, so rate > 0 implies bound != RateConstraint::kNone.
  virtual void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst,
                             double t0, double t1, double rate,
                             RateConstraint bound, uint32_t bound_host) = 0;
};

/// Static description of a simulated switched network (one InfiniBand switch,
/// full bisection bandwidth, per-host port limits).
struct FabricConfig {
  /// Number of hosts attached to the switch.
  uint32_t num_hosts = 2;
  /// Per-host egress port capacity in bytes/second (netMax of the paper).
  double egress_bytes_per_sec = 3.4e9;
  /// Per-host ingress port capacity in bytes/second.
  double ingress_bytes_per_sec = 3.4e9;
  /// Maximum message rate sustainable by a host channel adapter, in
  /// messages/second. A stream of size-S messages tops out at
  /// S * message_rate, which produces the small-message regime of Figure 3
  /// (bandwidth grows with message size until the port rate is reached).
  /// Zero disables the message-rate limit.
  double message_rate_per_host = 425000.0;
  /// Eq. 15 congestion term: every host beyond the first reduces the
  /// effective egress capacity of all hosts by this many bytes/second
  /// (observed on the paper's QDR cluster as 110 MB/s per added machine).
  double congestion_bytes_per_sec_per_extra_host = 0.0;
  /// Fixed latency added between a message fully draining from the source
  /// port and its completion being visible (propagation + switch + remote
  /// HCA processing).
  double base_latency_seconds = 2e-6;

  /// Effective per-host egress capacity after the congestion penalty.
  double EffectiveEgress() const {
    double eff = egress_bytes_per_sec -
                 congestion_bytes_per_sec_per_extra_host * (num_hosts - 1);
    return eff > 0 ? eff : 0.0;
  }

  /// Validates ranges (positive capacities, at least one host).
  Status Validate() const;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_SIM_FABRIC_H_
