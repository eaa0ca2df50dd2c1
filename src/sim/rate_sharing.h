#ifndef RDMAJOIN_SIM_RATE_SHARING_H_
#define RDMAJOIN_SIM_RATE_SHARING_H_

#include <cstdint>
#include <string>

namespace rdmajoin {

/// Relative tolerance for comparing *rates* (bytes/second): the tie band of
/// the equal-share label (ClassifyEqualShare). It is not the fabric's *time*
/// epsilon `kTimeEps`, whose units are unrelated (a time tolerance says
/// nothing about how close two bandwidth shares are). The value is pinned:
/// changing it can move labels in the committed bench JSON and span
/// datasets, which must stay byte-identical.
constexpr double kRateEps = 1e-12;

/// Which fair-share constraint set a flow's rate. The fabric attaches one of
/// these (plus the constraining host id) to every flow at every reshare; the
/// label rides the FlowTelemetry hook into the span dataset so the analysis
/// layer can say *why* a flow got its rate, not just what the rate was.
enum class RateConstraint : uint8_t {
  /// No rate assigned yet, or the flow is not rate-limited (rate 0 under a
  /// zero capacity scale). Telemetry never emits segments for such flows.
  kNone = 0,
  /// The sender's egress port was the tightest constraint.
  kSenderEgress = 1,
  /// The receiver's ingress port was the tightest constraint (incast).
  kReceiverIngress = 2,
  /// The per-host message-rate ceiling capped this flow below any fair
  /// share (small messages; Section 5's message-rate term).
  kMessageRate = 3,
  /// Analysis-level only: the span spent its time waiting for a
  /// double-buffering credit, not limited by any fabric constraint. The
  /// fabric never emits this; the "why is this flow slow" report does.
  kCreditStarved = 4,
};

/// Stable lower-case name for JSON fields and reports ("none", "egress",
/// "ingress", "msg_rate", "credit").
const char* RateConstraintName(RateConstraint c);

/// Parses a RateConstraintName back; returns false on unknown names.
bool ParseRateConstraintName(const std::string& name, RateConstraint* out);

/// Labels an equal-share rate assignment `min(e_share, i_share, cap)`: the
/// tightest of the three candidate shares wins, with ties resolved
/// egress > ingress > message-rate, each within a relative kRateEps band of
/// the assigned rate. This is the paper's bandwidth model (Eqs. 1-5): every
/// flow gets an equal share of its sender's egress and its receiver's
/// ingress port, and the tighter one binds. LinkFabric labels every
/// reshared link with it, and the forensics check (timing/span_query.h)
/// re-derives the label from the reconstructed shares, so both agree
/// whenever they agree on the rate.
inline RateConstraint ClassifyEqualShare(double e_share, double i_share,
                                         double cap) {
  const double m = e_share < i_share ? (e_share < cap ? e_share : cap)
                                     : (i_share < cap ? i_share : cap);
  if (e_share <= m * (1 + kRateEps)) return RateConstraint::kSenderEgress;
  if (i_share <= m * (1 + kRateEps)) return RateConstraint::kReceiverIngress;
  return RateConstraint::kMessageRate;
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_SIM_RATE_SHARING_H_
