#ifndef RDMAJOIN_SIM_RATE_SHARING_H_
#define RDMAJOIN_SIM_RATE_SHARING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rdmajoin {

/// Relative tolerance for comparing *rates* (bytes/second): the max-min
/// solver's freeze condition and the equal-share label tie band. It is not
/// the fabric's *time* epsilon `kTimeEps`, whose units are unrelated (a time
/// tolerance says nothing about how close two bandwidth shares are). The
/// value is pinned: changing it can move labels and shares in the committed
/// bench JSON and span datasets, which must stay byte-identical.
constexpr double kRateEps = 1e-12;

/// Which fair-share constraint was binding when a demand's rate was frozen.
/// The fabric attaches one of these (plus the constraining host id) to every
/// flow at every reshare; the label rides the FlowTelemetry hook into the
/// span dataset so the analysis layer can say *why* a flow got its rate, not
/// just what the rate was.
enum class RateConstraint : uint8_t {
  /// No rate assigned yet, or the flow is not rate-limited (rate 0 under a
  /// zero capacity scale). Telemetry never emits segments for such flows.
  kNone = 0,
  /// The sender's egress port was the tightest constraint.
  kSenderEgress = 1,
  /// The receiver's ingress port was the tightest constraint (incast).
  kReceiverIngress = 2,
  /// The per-host message-rate ceiling capped this demand below any fair
  /// share (small messages; Section 5's message-rate term).
  kMessageRate = 3,
  /// Analysis-level only: the span spent its time waiting for a
  /// double-buffering credit, not limited by any fabric constraint. The
  /// solvers never emit this; the "why is this flow slow" report does.
  kCreditStarved = 4,
};

/// Stable lower-case name for JSON fields and reports ("none", "egress",
/// "ingress", "msg_rate", "credit").
const char* RateConstraintName(RateConstraint c);

/// Parses a RateConstraintName back; returns false on unknown names.
bool ParseRateConstraintName(const std::string& name, RateConstraint* out);

/// One bandwidth demand between two hosts: a query's stage traffic in the
/// scheduler (src/sched/fabric_shares.h). `cap` is the
/// per-demand rate ceiling from the message-rate limit (+infinity when
/// uncapped); `rate`, `bound` and `bound_host` are the solver's outputs: the
/// assigned rate, the constraint that froze it, and the host owning that
/// constraint (src for egress/message-rate, dst for ingress).
struct RateDemand {
  uint32_t src = 0;
  uint32_t dst = 0;
  double cap = 0.0;
  double rate = 0.0;
  RateConstraint bound = RateConstraint::kNone;
  uint32_t bound_host = 0;
};

/// Labels an equal-share rate assignment `min(e_share, i_share, cap)`: the
/// tightest of the three candidate shares wins, with ties resolved
/// egress > ingress > message-rate. The epsilon band matches the max-min
/// solver's freeze condition. LinkFabric labels every reshared link with it,
/// and the forensics check (timing/span_query.h) re-derives the label from
/// the reconstructed shares, so both agree whenever they agree on the rate.
inline RateConstraint ClassifyEqualShare(double e_share, double i_share,
                                         double cap) {
  const double m = e_share < i_share ? (e_share < cap ? e_share : cap)
                                     : (i_share < cap ? i_share : cap);
  if (e_share <= m * (1 + kRateEps)) return RateConstraint::kSenderEgress;
  if (i_share <= m * (1 + kRateEps)) return RateConstraint::kReceiverIngress;
  return RateConstraint::kMessageRate;
}

/// Max-min fairness (progressive filling / water-filling) over `demands`,
/// constrained by per-host residual egress/ingress capacities. The capacity
/// vectors are indexed by host id and are consumed by the fill (pass copies
/// if the caller needs them afterwards). Demands are frozen in index order
/// within each round, which together with the host-id order of the
/// bottleneck scan makes the result a pure function of the inputs.
///
/// If a filling round freezes no demand (possible only with non-finite
/// capacities or caps -- inputs the callers reject at their boundaries), the
/// rates would be stale and the simulation quietly wrong, so the solver
/// hard-fails (diagnostic to stderr + abort) in every build mode.
void SolveMaxMinRates(std::vector<RateDemand>* demands,
                      std::vector<double>* egress_left,
                      std::vector<double>* ingress_left);

}  // namespace rdmajoin

#endif  // RDMAJOIN_SIM_RATE_SHARING_H_
