#include "sim/rate_sharing.h"

namespace rdmajoin {

const char* RateConstraintName(RateConstraint c) {
  switch (c) {
    case RateConstraint::kNone:
      return "none";
    case RateConstraint::kSenderEgress:
      return "egress";
    case RateConstraint::kReceiverIngress:
      return "ingress";
    case RateConstraint::kMessageRate:
      return "msg_rate";
    case RateConstraint::kCreditStarved:
      return "credit";
  }
  return "none";
}

bool ParseRateConstraintName(const std::string& name, RateConstraint* out) {
  for (RateConstraint c :
       {RateConstraint::kNone, RateConstraint::kSenderEgress,
        RateConstraint::kReceiverIngress, RateConstraint::kMessageRate,
        RateConstraint::kCreditStarved}) {
    if (name == RateConstraintName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

}  // namespace rdmajoin
