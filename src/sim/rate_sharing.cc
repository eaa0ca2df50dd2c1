#include "sim/rate_sharing.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/logging.h"

namespace rdmajoin {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void FailNonProgress(size_t remaining) {
  // A non-progressing fill means some demand can never be frozen -- every
  // further round would recompute the same bottleneck and freeze nothing,
  // so the old silent `break` shipped stale or zero rates into the rest of
  // the run. That is a corrupted simulation, not a recoverable condition:
  // fail hard in every build mode.
  std::fprintf(stderr,
               "rdmajoin: max-min filling made no progress with %zu demand(s) "
               "unfrozen; capacities or caps are not finite\n",
               remaining);
  RDMAJOIN_LOG(kError) << "max-min filling made no progress (" << remaining
                       << " demands unfrozen)";
  std::abort();
}
}  // namespace

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

void SolveMaxMinRates(std::vector<RateDemand>* demands,
                      std::vector<double>* egress_left,
                      std::vector<double>* ingress_left) {
  std::vector<RateDemand>& ds = *demands;
  std::vector<double>& e_left = *egress_left;
  std::vector<double>& i_left = *ingress_left;
  const uint32_t n = static_cast<uint32_t>(e_left.size());

  std::vector<bool> fixed(ds.size(), false);
  size_t unfixed = ds.size();
  std::vector<uint32_t> src_cnt(n), dst_cnt(n);
  std::vector<size_t> frozen;  // demands frozen in the current round
  while (unfixed > 0) {
    std::fill(src_cnt.begin(), src_cnt.end(), 0u);
    std::fill(dst_cnt.begin(), dst_cnt.end(), 0u);
    for (size_t i = 0; i < ds.size(); ++i) {
      if (fixed[i]) continue;
      ++src_cnt[ds[i].src];
      ++dst_cnt[ds[i].dst];
    }
    // Tightest fair share over all host constraints.
    double bottleneck = kInf;
    for (uint32_t h = 0; h < n; ++h) {
      if (src_cnt[h] > 0) bottleneck = std::min(bottleneck, e_left[h] / src_cnt[h]);
      if (dst_cnt[h] > 0) bottleneck = std::min(bottleneck, i_left[h] / dst_cnt[h]);
    }
    double min_cap = kInf;
    for (size_t i = 0; i < ds.size(); ++i) {
      if (!fixed[i]) min_cap = std::min(min_cap, ds[i].cap);
    }
    const size_t unfixed_before = unfixed;
    if (min_cap < bottleneck) {
      // Cap-limited demands freeze at their cap and release spare capacity.
      for (size_t i = 0; i < ds.size(); ++i) {
        if (fixed[i]) continue;
        if (ds[i].cap <= min_cap * (1 + kRateEps)) {
          ds[i].rate = ds[i].cap;
          // The cap round only runs while min_cap < bottleneck, so the
          // message-rate ceiling is strictly the tightest constraint here.
          ds[i].bound = RateConstraint::kMessageRate;
          ds[i].bound_host = ds[i].src;
          // Clamp: repeated subtraction accumulates floating-point error that
          // can drive the residual capacity (and with it the next round's
          // fair share) negative.
          e_left[ds[i].src] = std::max(0.0, e_left[ds[i].src] - ds[i].rate);
          i_left[ds[i].dst] = std::max(0.0, i_left[ds[i].dst] - ds[i].rate);
          fixed[i] = true;
          --unfixed;
        }
      }
      if (unfixed == unfixed_before) FailNonProgress(unfixed);
      continue;
    }
    // Freeze every demand crossing a bottlenecked constraint at the fair
    // share. The shares are the round's: residuals are charged only after
    // the scan, so freezing one demand cannot make a port it shares look
    // saturated to a later demand in the same round.
    frozen.clear();
    for (size_t i = 0; i < ds.size(); ++i) {
      if (fixed[i]) continue;
      const double e_share = e_left[ds[i].src] / src_cnt[ds[i].src];
      const double i_share = i_left[ds[i].dst] / dst_cnt[ds[i].dst];
      if (std::min(e_share, i_share) <= bottleneck * (1 + kRateEps)) {
        ds[i].rate = bottleneck;
        // Label the tighter side; ties prefer egress so the label is a pure
        // function of the shares even when both ports saturate at once. The
        // epsilon-aware compare mirrors the freeze condition above.
        if (e_share <= i_share * (1 + kRateEps)) {
          ds[i].bound = RateConstraint::kSenderEgress;
          ds[i].bound_host = ds[i].src;
        } else {
          ds[i].bound = RateConstraint::kReceiverIngress;
          ds[i].bound_host = ds[i].dst;
        }
        frozen.push_back(i);
      }
    }
    for (size_t i : frozen) {
      e_left[ds[i].src] = std::max(0.0, e_left[ds[i].src] - bottleneck);
      i_left[ds[i].dst] = std::max(0.0, i_left[ds[i].dst] - bottleneck);
      fixed[i] = true;
      --unfixed;
    }
    if (unfixed == unfixed_before) FailNonProgress(unfixed);
  }
}

}  // namespace rdmajoin
