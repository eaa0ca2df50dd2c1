// Differential tests for LinkFabric's incremental-reshare fast paths: the
// same seeded schedule is replayed through the full-recompute reference and
// the incremental path, and the outputs must agree -- exactly for
// equal-share (whose incremental rates are bit-identical by construction),
// and within kRateEps for max-min (where the progressive fill couples
// components only through the epsilon).
//
// The incremental instances additionally run with
// verify_incremental_reshare=true, so every reshare is cross-checked against
// the full-recompute oracle inside the fabric itself (abort on mismatch) in
// every build mode, not just !NDEBUG.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/link_fabric.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

constexpr uint32_t kHosts = 6;

// Raw segment log: no merging, so both paths must emit the same sequence.
struct Seg {
  uint64_t flow;
  uint32_t src;
  uint32_t dst;
  double t0;
  double t1;
  double rate;
  RateConstraint bound;
  uint32_t bound_host;
};

class SegmentLog : public FlowTelemetry {
 public:
  void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst, double t0,
                     double t1, double rate, RateConstraint bound,
                     uint32_t bound_host) override {
    segs.push_back(Seg{flow_id, src, dst, t0, t1, rate, bound, bound_host});
  }
  std::vector<Seg> segs;
};

FabricConfig EquivConfig(SharingPolicy sharing, bool incremental) {
  FabricConfig f;
  f.num_hosts = kHosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  // A binding per-message cap exercises the LinkFabric head-pop fast path.
  f.message_rate_per_host = 5.0;
  f.base_latency_seconds = 1e-6;
  f.sharing = sharing;
  f.incremental_reshare = incremental;
  // Cross-check inside the fabric in every build mode (defaults off under
  // NDEBUG); meaningless but harmless on the full-reshare instance.
  f.verify_incremental_reshare = true;
  return f;
}

// One seeded schedule of enqueues / advances / capacity faults over the
// link-queue model (the replay hot path): FIFO link queues, head pops, and
// the O(1) message-rate-cap refresh. Identical RNG consumption on every call,
// so two fabrics fed the same seed see the same operations at the same
// virtual times.
struct LinkRun {
  std::vector<LinkFabric::Completion> completions;
  std::vector<double> rate_probes;
  std::vector<Seg> segments;
};

LinkRun RunLinkSchedule(SharingPolicy sharing, bool incremental,
                        uint64_t seed) {
  LinkFabric fabric(EquivConfig(sharing, incremental));
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  Random rng(seed);
  LinkRun run;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t op = rng.Uniform(10);
    if (op < 6) {
      const uint32_t src = static_cast<uint32_t>(rng.Uniform(kHosts));
      uint32_t dst = static_cast<uint32_t>(rng.Uniform(kHosts));
      if (dst == src) dst = (dst + 1) % kHosts;
      const double bytes = (1.0 + static_cast<double>(rng.Uniform(1000))) *
                           std::pow(10.0, static_cast<double>(rng.Uniform(3)));
      fabric.Enqueue(src, dst, bytes, t, /*cookie=*/static_cast<uint64_t>(i));
    } else if (op < 8) {
      const double nc = fabric.NextCompletionTime();
      t = std::isfinite(nc) ? nc : t + 0.001;
      fabric.AdvanceTo(t, &run.completions);
    } else if (op == 8) {
      t += rng.NextDouble() * 0.01;
      fabric.AdvanceTo(t, &run.completions);
    } else {
      static const double kScales[] = {1.0, 0.5, 1e-9, 2.0};
      const uint32_t host = static_cast<uint32_t>(rng.Uniform(kHosts));
      fabric.SetHostCapacityScale(host, kScales[rng.Uniform(4)],
                                  kScales[rng.Uniform(4)]);
    }
    for (uint32_t s = 0; s < kHosts; ++s) {
      for (uint32_t d = 0; d < kHosts; ++d) {
        run.rate_probes.push_back(fabric.LinkRate(s, d));
      }
    }
  }
  for (uint32_t h = 0; h < kHosts; ++h) fabric.SetHostCapacityScale(h, 1.0, 1.0);
  fabric.AdvanceTo(t + 1e9, &run.completions);
  EXPECT_EQ(fabric.queued_messages(), 0u);
  run.segments = std::move(log.segs);
  return run;
}

void ExpectLinkRunsMatch(const LinkRun& full, const LinkRun& inc, bool exact) {
  ASSERT_EQ(full.completions.size(), inc.completions.size());
  for (size_t i = 0; i < full.completions.size(); ++i) {
    EXPECT_EQ(full.completions[i].id, inc.completions[i].id) << "completion " << i;
    EXPECT_EQ(full.completions[i].cookie, inc.completions[i].cookie);
    if (exact) {
      EXPECT_EQ(full.completions[i].time, inc.completions[i].time)
          << "completion " << i;
    } else {
      EXPECT_NEAR(full.completions[i].time, inc.completions[i].time,
                  1e-9 * (1.0 + std::abs(full.completions[i].time)));
    }
  }
  ASSERT_EQ(full.rate_probes.size(), inc.rate_probes.size());
  for (size_t i = 0; i < full.rate_probes.size(); ++i) {
    const double a = full.rate_probes[i];
    const double b = inc.rate_probes[i];
    if (exact) {
      EXPECT_EQ(a, b) << "rate probe " << i;
    } else {
      EXPECT_LE(std::abs(a - b), kRateEps * std::max(std::abs(a), std::abs(b)))
          << "rate probe " << i << ": " << a << " vs " << b;
    }
  }
  ASSERT_EQ(full.segments.size(), inc.segments.size());
  for (size_t i = 0; i < full.segments.size(); ++i) {
    const Seg& a = full.segments[i];
    const Seg& b = inc.segments[i];
    EXPECT_EQ(a.flow, b.flow) << "segment " << i;
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    // Discrete labels: exact agreement in both comparison modes.
    EXPECT_EQ(RateConstraintName(a.bound), RateConstraintName(b.bound))
        << "segment " << i;
    EXPECT_EQ(a.bound_host, b.bound_host) << "segment " << i;
    if (exact) {
      EXPECT_EQ(a.t0, b.t0) << "segment " << i;
      EXPECT_EQ(a.t1, b.t1) << "segment " << i;
      EXPECT_EQ(a.rate, b.rate) << "segment " << i;
    } else {
      EXPECT_NEAR(a.t0, b.t0, 1e-9 * (1.0 + std::abs(a.t0)));
      EXPECT_NEAR(a.t1, b.t1, 1e-9 * (1.0 + std::abs(a.t1)));
      EXPECT_LE(std::abs(a.rate - b.rate),
                kRateEps * std::max(std::abs(a.rate), std::abs(b.rate)))
          << "segment " << i;
    }
  }
}

TEST(LinkFabricEquivalence, EqualShareIncrementalIsByteIdentical) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    LinkRun full = RunLinkSchedule(SharingPolicy::kEqualShare, false, seed);
    LinkRun inc = RunLinkSchedule(SharingPolicy::kEqualShare, true, seed);
    ExpectLinkRunsMatch(full, inc, /*exact=*/true);
  }
}

TEST(LinkFabricEquivalence, MaxMinIncrementalMatchesWithinRateEps) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    LinkRun full = RunLinkSchedule(SharingPolicy::kMaxMin, false, seed);
    LinkRun inc = RunLinkSchedule(SharingPolicy::kMaxMin, true, seed);
    ExpectLinkRunsMatch(full, inc, /*exact=*/false);
  }
}

// The incremental path must also do less work: the reshared-flow counter
// stays well below reshares * active_flows on an all-to-all pattern where a
// full recompute would touch every flow each time.
TEST(LinkFabricEquivalence, IncrementalReducesResharedLinkAssignments) {
  FabricConfig cfg = EquivConfig(SharingPolicy::kEqualShare, true);
  cfg.verify_incremental_reshare = false;
  LinkFabric inc(cfg);
  cfg.incremental_reshare = false;
  LinkFabric full(cfg);
  double t = 0.0;
  std::vector<LinkFabric::Completion> done;
  for (int round = 0; round < 10; ++round) {
    uint32_t li = 0;
    for (uint32_t s = 0; s < kHosts; ++s) {
      for (uint32_t d = 0; d < kHosts; ++d) {
        if (s == d) continue;
        // Deep queues with per-link distinct sizes: head pops desynchronize,
        // so each pop touches one link on the O(1) path while the full
        // recompute reassigns every active link every time.
        for (int k = 0; k < 10; ++k) {
          const double bytes = 100.0 + 13.0 * li + 7.0 * k;
          inc.Enqueue(s, d, bytes, t);
          full.Enqueue(s, d, bytes, t);
        }
        ++li;
      }
    }
    t += 1e9;  // Drain everything.
    inc.AdvanceTo(t, &done);
    full.AdvanceTo(t, &done);
  }
  ASSERT_GT(full.reshares(), 0u);
  ASSERT_GT(inc.reshares(), 0u);
  EXPECT_LT(inc.reshared_links(), full.reshared_links() / 4);
}

}  // namespace
}  // namespace rdmajoin
