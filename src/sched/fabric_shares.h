#ifndef RDMAJOIN_SCHED_FABRIC_SHARES_H_
#define RDMAJOIN_SCHED_FABRIC_SHARES_H_

#include <cstdint>
#include <map>
#include <vector>

#include "sim/fabric.h"

namespace rdmajoin {

/// Per-query fabric bandwidth shares, computed through the max-min solver
/// (sim/rate_sharing.h) rather than through an ad-hoc formula. The replay
/// fabric itself shares ports equally (sim/link_fabric.h); across queries
/// the scheduler wants weighted, work-conserving shares. Each concurrent
/// query contributes `weight` all-to-all demand sets (one flow per ordered
/// host pair per unit of weight) against the configured per-host
/// egress/ingress capacities, and a query's share is its aggregate solved
/// rate normalized by the aggregate a single query gets when running alone.
///
/// The returned multipliers are therefore in (0, 1]: a query whose network
/// stage runs concurrently with others progresses at multiplier x its solo
/// network rate. For n equal-weight queries on a symmetric fabric the solver
/// yields exactly 1/n each; unequal integer weights yield w_i / sum(w) until
/// a capacity asymmetry (SetHostCapacityScale-style) makes the progressive
/// filling non-trivial.
///
/// `weights[i]` is query i's weight; entries with weight 0 get multiplier 0.
/// Fabrics with fewer than two hosts have no cross-host demands; the
/// weight-proportional shares are returned directly.
std::vector<double> ComputeFabricShares(const FabricConfig& fabric,
                                        const std::vector<uint32_t>& weights);

/// Memoizing wrapper: the schedule engine recomputes shares after every
/// event, but the distinct weight vectors per run are few. The cache key is
/// the exact weight vector (order matters -- shares are returned in input
/// order), so the cache can never change a result.
class FabricShareCache {
 public:
  explicit FabricShareCache(const FabricConfig& fabric) : fabric_(fabric) {}

  const std::vector<double>& Get(const std::vector<uint32_t>& weights);

 private:
  FabricConfig fabric_;
  // std::map: deterministic and the key count is tiny (no hashing of
  // vectors, no unordered iteration anywhere near output).
  std::map<std::vector<uint32_t>, std::vector<double>> cache_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_SCHED_FABRIC_SHARES_H_
