#include "sim/link_fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace rdmajoin {
namespace {

FabricConfig BasicConfig(uint32_t hosts = 4) {
  FabricConfig f;
  f.num_hosts = hosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  f.message_rate_per_host = 0.0;
  f.congestion_bytes_per_sec_per_extra_host = 0.0;
  f.base_latency_seconds = 0.0;
  return f;
}

std::vector<LinkFabric::Completion> DrainAt(LinkFabric* fabric, double t) {
  std::vector<LinkFabric::Completion> done;
  fabric->AdvanceTo(t, &done);
  return done;
}

TEST(FabricConfig, ValidatesRanges) {
  FabricConfig f = BasicConfig();
  EXPECT_TRUE(f.Validate().ok());
  f.num_hosts = 0;
  EXPECT_FALSE(f.Validate().ok());
  f = BasicConfig();
  f.egress_bytes_per_sec = 0;
  EXPECT_FALSE(f.Validate().ok());
  f = BasicConfig();
  f.congestion_bytes_per_sec_per_extra_host = 400.0;  // 3 * 400 > 1000
  EXPECT_FALSE(f.Validate().ok());
}

TEST(FabricConfig, EffectiveEgressAppliesCongestionTerm) {
  FabricConfig f = BasicConfig(5);
  f.congestion_bytes_per_sec_per_extra_host = 100.0;
  EXPECT_DOUBLE_EQ(f.EffectiveEgress(), 1000.0 - 4 * 100.0);
}

TEST(LinkFabric, SingleMessageAtFullBandwidth) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 500.0, 0.0, 42);
  EXPECT_DOUBLE_EQ(fabric.NextCompletionTime(), 0.5);
  auto done = DrainAt(&fabric, 0.5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].cookie, 42u);
  EXPECT_DOUBLE_EQ(fabric.total_bytes_delivered(), 500.0);
  EXPECT_EQ(fabric.messages_delivered(), 1u);
}

TEST(LinkFabric, FifoOrderWithinOneLink) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 100.0, 0.0, 1);
  fabric.Enqueue(0, 1, 100.0, 0.0, 2);
  fabric.Enqueue(0, 1, 100.0, 0.0, 3);
  auto done = DrainAt(&fabric, 10.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].cookie, 1u);
  EXPECT_EQ(done[1].cookie, 2u);
  EXPECT_EQ(done[2].cookie, 3u);
  // Sequential service at full bandwidth: 0.1, 0.2, 0.3 seconds.
  EXPECT_NEAR(done[0].time, 0.1, 1e-9);
  EXPECT_NEAR(done[1].time, 0.2, 1e-9);
  EXPECT_NEAR(done[2].time, 0.3, 1e-9);
}

TEST(LinkFabric, TwoLinksFromOneHostShareEgress) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 500.0, 0.0, 1);
  fabric.Enqueue(0, 2, 500.0, 0.0, 2);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 2), 500.0);
  auto done = DrainAt(&fabric, 1.0);
  EXPECT_EQ(done.size(), 2u);
}

TEST(LinkFabric, IngressSharedAcrossSenders) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 500.0, 0.0, 1);
  fabric.Enqueue(2, 1, 500.0, 0.0, 2);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(2, 1), 500.0);
}

TEST(LinkFabric, DrainedLinkFreesBandwidth) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 250.0, 0.0, 1);
  fabric.Enqueue(0, 2, 500.0, 0.0, 2);
  auto done = DrainAt(&fabric, 0.5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].cookie, 1u);
  // Remaining 250 bytes now run at 1000 B/s.
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 2), 1000.0);
  done = DrainAt(&fabric, 0.75);
  ASSERT_EQ(done.size(), 1u);
}

TEST(LinkFabric, SuccessiveMessagesDoNotChangeRates) {
  // A busy link keeps its rate when the head message completes and the next
  // starts (no set change).
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 100.0, 0.0, 1);
  fabric.Enqueue(0, 2, 1000.0, 0.0, 2);
  fabric.Enqueue(0, 1, 100.0, 0.0, 3);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  auto done = DrainAt(&fabric, 0.3);
  EXPECT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
}

TEST(LinkFabric, MessageRateCapBindsForSmallMessages) {
  FabricConfig f = BasicConfig();
  f.message_rate_per_host = 10.0;
  LinkFabric fabric(f);
  fabric.Enqueue(0, 1, 1.0, 0.0, 1);  // Cap: 1 byte * 10/s = 10 B/s.
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 10.0);
  // Large messages saturate the port instead.
  LinkFabric big(f);
  big.Enqueue(0, 1, 1000.0, 0.0, 1);
  EXPECT_DOUBLE_EQ(big.LinkRate(0, 1), 1000.0);
}

TEST(LinkFabric, BaseLatencyShiftsCompletionTimes) {
  FabricConfig f = BasicConfig();
  f.base_latency_seconds = 0.25;
  LinkFabric fabric(f);
  fabric.Enqueue(0, 1, 1000.0, 0.0, 1);
  auto done = DrainAt(&fabric, 1.0);
  EXPECT_TRUE(done.empty());
  done = DrainAt(&fabric, 1.25);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].time, 1.25, 1e-9);
}

TEST(LinkFabric, EqualShareIsNotWorkConserving) {
  // Host 0 sends to hosts 1 and 2; hosts 3 and 4 also send to host 1, so
  // host 1's ingress holds every link into it at 1000/3. Equal share still
  // gives 0->2 only half of host 0's egress, leaving 1000/6 of it idle
  // (RateSharing.MaxMinIsWorkConserving: max-min hands it to 0->2).
  LinkFabric fabric(BasicConfig(5));
  fabric.Enqueue(0, 1, 1e6, 0.0);
  fabric.Enqueue(0, 2, 1e6, 0.0);
  fabric.Enqueue(3, 1, 1e6, 0.0);
  fabric.Enqueue(4, 1, 1e6, 0.0);
  EXPECT_NEAR(fabric.LinkRate(0, 1), 1000.0 / 3, 1e-9);
  EXPECT_NEAR(fabric.LinkRate(3, 1), 1000.0 / 3, 1e-9);
  EXPECT_NEAR(fabric.LinkRate(4, 1), 1000.0 / 3, 1e-9);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 2), 500.0);
}

TEST(LinkFabric, EqualShareRatesSpanningNineOrdersOfMagnitude) {
  LinkFabric fabric(BasicConfig(4));
  fabric.SetHostCapacityScale(0, 1e-9, 1e-9);
  fabric.Enqueue(0, 1, 1e-6, 0.0);
  fabric.Enqueue(2, 3, 1000.0, 0.0);
  EXPECT_NEAR(fabric.LinkRate(0, 1), 1e-6, 1e-6 * 1e-9);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(2, 3), 1000.0);
}

// The reshare re-levels only the links touching a host whose active-link
// count changed, and refreshes a single link when only its head changed.
// On an all-to-all of deep, per-link distinct queues the head pops
// desynchronize, so most reshares touch one link: 8,100 assignments over
// 3,235 reshares, where recomputing every active link at every reshare
// makes 76,049. The counts are exact: a reshare that touches more links
// than it must, or one too many or too few reshares, moves them.
TEST(LinkFabric, ReshareWorkIsPinnedOnAllToAll) {
  constexpr uint32_t kHosts = 6;
  FabricConfig cfg = BasicConfig(kHosts);
  cfg.message_rate_per_host = 5.0;  // binding cap: head pops refresh rates
  cfg.base_latency_seconds = 1e-6;
  LinkFabric fabric(cfg);
  double t = 0.0;
  std::vector<LinkFabric::Completion> done;
  for (int round = 0; round < 10; ++round) {
    uint32_t li = 0;
    for (uint32_t s = 0; s < kHosts; ++s) {
      for (uint32_t d = 0; d < kHosts; ++d) {
        if (s == d) continue;
        for (int k = 0; k < 10; ++k) {
          fabric.Enqueue(s, d, 100.0 + 13.0 * li + 7.0 * k, t);
        }
        ++li;
      }
    }
    t += 1e9;  // Drain everything.
    fabric.AdvanceTo(t, &done);
  }
  EXPECT_EQ(done.size(), 3000u);
  EXPECT_EQ(fabric.reshares(), 3235u);
  EXPECT_EQ(fabric.reshared_links(), 8100u);
}

TEST(LinkFabric, ConservesBytesUnderRandomTraffic) {
  FabricConfig f = BasicConfig(5);
  f.base_latency_seconds = 1e-3;
  LinkFabric fabric(f);
  uint64_t seed = 99;
  auto next = [&seed] {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    return seed * UINT64_C(0x2545F4914F6CDD1D);
  };
  double injected = 0;
  double now = 0;
  std::vector<LinkFabric::Completion> done;
  for (int i = 0; i < 500; ++i) {
    const uint32_t src = next() % 5;
    uint32_t dst = next() % 5;
    if (dst == src) dst = (dst + 1) % 5;
    const double bytes = 1.0 + static_cast<double>(next() % 500);
    injected += bytes;
    fabric.Enqueue(src, dst, bytes, now);
    now += 1e-4 * static_cast<double>(next() % 20);
    fabric.AdvanceTo(now, &done);
  }
  fabric.AdvanceTo(now + 1e9, &done);
  EXPECT_EQ(done.size(), 500u);
  EXPECT_NEAR(fabric.total_bytes_delivered(), injected, injected * 1e-9);
  EXPECT_EQ(fabric.queued_messages(), 0u);
  for (size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1].time, done[i].time + 1e-9);
  }
}

// --- FlowTelemetry: one segment per maximal constant-rate interval --------

struct LoggedSegment {
  uint64_t flow;
  double t0;
  double t1;
  double rate;
  RateConstraint bound;
  uint32_t bound_host;
};

class SegmentLog : public FlowTelemetry {
 public:
  void OnFlowSegment(uint64_t flow_id, uint32_t, uint32_t, double t0, double t1,
                     double rate, RateConstraint bound,
                     uint32_t bound_host) override {
    segs.push_back(LoggedSegment{flow_id, t0, t1, rate, bound, bound_host});
  }
  /// The logged segments of `flow`, in report order.
  std::vector<LoggedSegment> Of(uint64_t flow) const {
    std::vector<LoggedSegment> out;
    for (const LoggedSegment& g : segs) {
      if (g.flow == flow) out.push_back(g);
    }
    return out;
  }
  std::vector<LoggedSegment> segs;
};

TEST(LinkFabricTelemetry, ReshareWithoutRateChangeKeepsOneSegment) {
  LinkFabric fabric(BasicConfig());
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  const auto flow = fabric.Enqueue(0, 1, 1000.0, 0.0);
  DrainAt(&fabric, 0.25);
  // Re-levels 0->1 (host 0 is dirty) to the rate and label it already has.
  fabric.SetHostCapacityScale(0, 1.0, 1.0);
  // Another activation elsewhere reshares again.
  fabric.Enqueue(2, 3, 1000.0, 0.5);
  DrainAt(&fabric, 2.0);
  const auto segs = log.Of(flow);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_DOUBLE_EQ(segs[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(segs[0].t1, 1.0);
  EXPECT_DOUBLE_EQ(segs[0].rate, 1000.0);
  EXPECT_EQ(segs[0].bound, RateConstraint::kSenderEgress);
  EXPECT_EQ(log.segs.size(), 2u);
}

TEST(LinkFabricTelemetry, RateChangeSplitsSegment) {
  LinkFabric fabric(BasicConfig());
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  const auto flow = fabric.Enqueue(0, 1, 1000.0, 0.0);
  // A second sender into host 1 halves its ingress share at t = 0.5.
  fabric.Enqueue(2, 1, 1000.0, 0.5);
  DrainAt(&fabric, 5.0);
  const auto segs = log.Of(flow);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_DOUBLE_EQ(segs[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(segs[0].t1, 0.5);
  EXPECT_DOUBLE_EQ(segs[0].rate, 1000.0);
  EXPECT_DOUBLE_EQ(segs[1].t0, 0.5);
  EXPECT_DOUBLE_EQ(segs[1].t1, 1.5);
  EXPECT_DOUBLE_EQ(segs[1].rate, 500.0);
  EXPECT_EQ(segs[1].bound, RateConstraint::kReceiverIngress);
  EXPECT_EQ(segs[1].bound_host, 1u);
}

TEST(LinkFabricTelemetry, ConstraintSwitchAtEqualRateSplitsSegment) {
  // Egress = ingress = 1000: the tie labels 0->1 egress-bound. Doubling
  // host 0's egress leaves the rate at 1000 but makes it ingress-bound.
  LinkFabric fabric(BasicConfig());
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  const auto flow = fabric.Enqueue(0, 1, 1000.0, 0.0);
  DrainAt(&fabric, 0.5);
  fabric.SetHostCapacityScale(0, 2.0, 1.0);
  DrainAt(&fabric, 2.0);
  const auto segs = log.Of(flow);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].bound, RateConstraint::kSenderEgress);
  EXPECT_EQ(segs[0].bound_host, 0u);
  EXPECT_DOUBLE_EQ(segs[0].t1, 0.5);
  EXPECT_EQ(segs[1].bound, RateConstraint::kReceiverIngress);
  EXPECT_EQ(segs[1].bound_host, 1u);
  EXPECT_DOUBLE_EQ(segs[1].t0, 0.5);
  EXPECT_DOUBLE_EQ(segs[1].t1, 1.0);
  EXPECT_DOUBLE_EQ(segs[0].rate, segs[1].rate);
}

TEST(LinkFabricTelemetry, HeadPopStartsNextMessageSegment) {
  LinkFabric fabric(BasicConfig());
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  const auto first = fabric.Enqueue(0, 1, 500.0, 0.0);
  const auto second = fabric.Enqueue(0, 1, 500.0, 0.0);
  DrainAt(&fabric, 2.0);
  ASSERT_EQ(log.segs.size(), 2u);
  EXPECT_EQ(log.segs[0].flow, first);
  EXPECT_DOUBLE_EQ(log.segs[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(log.segs[0].t1, 0.5);
  EXPECT_EQ(log.segs[1].flow, second);
  EXPECT_DOUBLE_EQ(log.segs[1].t0, 0.5);
  EXPECT_DOUBLE_EQ(log.segs[1].t1, 1.0);
}

TEST(LinkFabricTelemetry, SameInstantResharesRestoringTheRateKeepOneSegment) {
  LinkFabric fabric(BasicConfig());
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  const auto flow = fabric.Enqueue(0, 1, 1000.0, 0.0);
  DrainAt(&fabric, 0.5);
  fabric.SetHostCapacityScale(0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  fabric.SetHostCapacityScale(0, 1.0, 1.0);
  DrainAt(&fabric, 2.0);
  const auto segs = log.Of(flow);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_DOUBLE_EQ(segs[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(segs[0].t1, 1.0);
}

TEST(LinkFabricTelemetry, StallAtRateZeroSplitsSegment) {
  LinkFabric fabric(BasicConfig());
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  const auto flow = fabric.Enqueue(0, 1, 1000.0, 0.0);
  DrainAt(&fabric, 0.25);
  fabric.SetHostCapacityScale(0, 0.0, 1.0);
  DrainAt(&fabric, 0.5);
  fabric.SetHostCapacityScale(0, 1.0, 1.0);
  DrainAt(&fabric, 2.0);
  const auto segs = log.Of(flow);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_DOUBLE_EQ(segs[0].t1, 0.25);
  EXPECT_DOUBLE_EQ(segs[1].t0, 0.5);
  EXPECT_DOUBLE_EQ(segs[1].t1, 1.25);
  EXPECT_DOUBLE_EQ(segs[0].rate, segs[1].rate);
}

TEST(LinkFabric, AllToAllDrainsAtPerHostEgress) {
  // All-to-all uniform traffic drains every host's egress at full rate.
  const uint32_t hosts = 4;
  LinkFabric fabric(BasicConfig(hosts));
  for (uint32_t s = 0; s < hosts; ++s) {
    for (uint32_t d = 0; d < hosts; ++d) {
      if (s == d) continue;
      for (int i = 0; i < 20; ++i) fabric.Enqueue(s, d, 100.0, 0.0);
    }
  }
  std::vector<LinkFabric::Completion> done;
  double t = 0;
  while (fabric.queued_messages() > 0) {
    t = fabric.NextCompletionTime();
    fabric.AdvanceTo(t, &done);
  }
  // Total per-host egress is 1000 B/s; each host sends 3*20*100 = 6000 bytes.
  EXPECT_NEAR(t, 6.0, 1e-6);
  EXPECT_EQ(done.size(), 240u);
}

TEST(LinkFabric, AllToAllPumpMaterialisesOnlyDrainingLinks) {
  // 10 hosts, 90 links, each kept two messages deep: a completion refills its
  // link until the link has sent 60 messages. Per-link sizes differ, so heads
  // drain at distinct instants. The event-driven fabric materialises a link
  // only when its head drains or its rate or label changes, so its updates
  // stay within a small constant per message instead of ~90 per drain.
  FabricConfig f;  // QDR-like defaults: equal share, message-rate cap, latency
  f.num_hosts = 10;
  LinkFabric fabric(f);
  const uint32_t hosts = f.num_hosts;
  const int per_link = 60;
  std::vector<int> sent(static_cast<size_t>(hosts) * hosts, 0);
  const auto size_of = [&](uint32_t link) { return 65536.0 + 977.0 * link; };
  for (uint32_t s = 0; s < hosts; ++s) {
    for (uint32_t d = 0; d < hosts; ++d) {
      if (s == d) continue;
      const uint32_t link = s * hosts + d;
      for (int k = 0; k < 2; ++k) {
        fabric.Enqueue(s, d, size_of(link), 0.0, link);
        ++sent[link];
      }
    }
  }
  std::vector<LinkFabric::Completion> done;
  while (fabric.NextCompletionTime() != std::numeric_limits<double>::infinity()) {
    const double t = fabric.NextCompletionTime();
    done.clear();
    fabric.AdvanceTo(t, &done);
    for (const LinkFabric::Completion& c : done) {
      const uint32_t link = static_cast<uint32_t>(c.cookie);
      if (sent[link] == per_link) continue;
      fabric.Enqueue(link / hosts, link % hosts, size_of(link), t, link);
      ++sent[link];
    }
  }
  const uint64_t messages = fabric.messages_delivered();
  EXPECT_EQ(messages, 90u * per_link);
  EXPECT_GT(fabric.fabric_steps(), 0u);
  EXPECT_GE(fabric.link_updates(), messages);  // every pop materialises
  EXPECT_LE(fabric.link_updates(), 4 * messages);
}

// SolveMaxMinRates is the scheduler's share solver (sched/fabric_shares.h).
// These drive it directly over the demand sets a fabric would hand it: one
// demand per active link, in ascending link order, each with the full
// per-host capacities as residuals.
struct MaxMinResult {
  std::vector<RateDemand> demands;
  std::vector<double> egress_left;
  std::vector<double> ingress_left;
};

MaxMinResult SolveMaxMin(const std::vector<std::pair<uint32_t, uint32_t>>& links,
                         const std::vector<double>& egress,
                         const std::vector<double>& ingress) {
  MaxMinResult r;
  for (const auto& [src, dst] : links) {
    r.demands.push_back(RateDemand{src, dst,
                                   std::numeric_limits<double>::infinity(), 0.0});
  }
  r.egress_left = egress;
  r.ingress_left = ingress;
  SolveMaxMinRates(&r.demands, &r.egress_left, &r.ingress_left);
  return r;
}

TEST(RateSharing, MaxMinRedistributesAcrossLinks) {
  const std::vector<double> cap(4, 1000.0);
  // Ingress(1) bottleneck: 500 each; 0->3 gets host 0's remaining 500.
  const MaxMinResult r = SolveMaxMin({{0, 1}, {0, 3}, {2, 1}}, cap, cap);
  EXPECT_DOUBLE_EQ(r.demands[0].rate, 500.0);
  EXPECT_DOUBLE_EQ(r.demands[1].rate, 500.0);
  EXPECT_DOUBLE_EQ(r.demands[2].rate, 500.0);
}

TEST(RateSharing, MaxMinIsWorkConserving) {
  // The demand set of LinkFabric.EqualShareIsNotWorkConserving: max-min
  // hands 0->2 everything 0->1 cannot use, where equal share leaves it idle.
  const std::vector<double> cap(5, 1000.0);
  const MaxMinResult r =
      SolveMaxMin({{0, 1}, {0, 2}, {3, 1}, {4, 1}}, cap, cap);
  EXPECT_NEAR(r.demands[0].rate, 1000.0 / 3, 1e-9);
  EXPECT_NEAR(r.demands[1].rate, 2000.0 / 3, 1e-9);
  EXPECT_NEAR(r.demands[2].rate, 1000.0 / 3, 1e-9);
  EXPECT_NEAR(r.demands[3].rate, 1000.0 / 3, 1e-9);
}

// Regression for the kTimeEps-as-rate-epsilon reuse: with host 0 at a 1e-9
// capacity scale, live rates span nine orders of magnitude (1e-6 .. 1e3
// bytes/sec). The *relative* rate epsilon must freeze only the truly
// bottlenecked demand -- an absolute-style tolerance at the old epsilon's
// scale would glue the fast demand to the slow bottleneck (or never
// converge).
TEST(RateSharing, MaxMinRatesSpanningNineOrdersOfMagnitude) {
  std::vector<double> cap(4, 1000.0);
  cap[0] = 1000.0 * 1e-9;
  // The fast demand 2->1 shares host 1's ingress with the slow 0->1; max-min
  // gives it everything the slow one cannot use.
  const MaxMinResult r = SolveMaxMin({{0, 1}, {2, 1}}, cap, cap);
  EXPECT_NEAR(r.demands[0].rate, 1e-6, 1e-6 * 1e-9);
  EXPECT_EQ(r.demands[0].bound, RateConstraint::kSenderEgress);
  EXPECT_NEAR(r.demands[1].rate, 1000.0 - 1e-6, 1e-6);
  EXPECT_EQ(r.demands[1].bound, RateConstraint::kReceiverIngress);
  // A 1e-6 B message on the slow demand and a 1000 B one on the fast demand
  // both finish at ~1 second.
  EXPECT_NEAR(1e-6 / r.demands[0].rate, 1.0, 1e-5);
  EXPECT_NEAR(1000.0 / r.demands[1].rate, 1.0, 1e-5);
}

// Regression for the max-min accumulation bug: with many demands sharing a
// port, subtracting frozen rates from the residual capacities accumulates
// floating-point error and used to drive the residuals negative, which
// could then assign (tiny) negative rates. The solver clamps residuals at
// zero. The demand set grows one link at a time, as 300 random enqueues
// would activate them, and every solve must keep residuals and rates
// non-negative and each host within its capacity.
TEST(RateSharing, MaxMinResidualsNeverGoNegative) {
  constexpr uint32_t kHosts = 8;
  // Capacities chosen to produce non-terminating binary fractions in the
  // per-demand shares, maximizing accumulation error.
  const std::vector<double> egress(kHosts, 1000.0 / 3.0);
  const std::vector<double> ingress(kHosts, 700.0 / 3.0);
  std::mt19937 rng(42);
  std::uniform_int_distribution<uint32_t> host(0, kHosts - 1);
  std::uniform_real_distribution<double> size(1.0, 100.0);
  std::vector<std::pair<uint32_t, uint32_t>> links;
  for (int i = 0; i < 300; ++i) {
    const uint32_t src = host(rng);
    uint32_t dst = host(rng);
    if (dst == src) dst = (dst + 1) % kHosts;
    size(rng);  // the message size, which an uncapped demand ignores
    const std::pair<uint32_t, uint32_t> link(src, dst);
    const auto at = std::lower_bound(links.begin(), links.end(), link);
    if (at != links.end() && *at == link) continue;  // already active
    links.insert(at, link);
    const MaxMinResult r = SolveMaxMin(links, egress, ingress);
    std::vector<double> out(kHosts, 0.0), in(kHosts, 0.0);
    for (const RateDemand& d : r.demands) {
      ASSERT_GE(d.rate, 0.0);
      ASSERT_FALSE(std::isnan(d.rate));
      out[d.src] += d.rate;
      in[d.dst] += d.rate;
    }
    for (uint32_t h = 0; h < kHosts; ++h) {
      ASSERT_GE(r.egress_left[h], 0.0) << "host " << h;
      ASSERT_GE(r.ingress_left[h], 0.0) << "host " << h;
      EXPECT_LE(out[h], egress[h] * (1.0 + 1e-6)) << "host " << h;
      EXPECT_LE(in[h], ingress[h] * (1.0 + 1e-6)) << "host " << h;
    }
  }
  EXPECT_GT(links.size(), 40u);
}

// The progressive-filling non-progress guard is a hard failure in every
// build mode (an assert in debug and a silent break in release would leave
// stale rates). Only non-finite inputs can trigger it; the fabric rejects
// those at its boundary, so drive the solver directly.
using RateSharingDeathTest = ::testing::Test;

void SolveWithNanInputs() {
  std::vector<RateDemand> demands(1);
  demands[0].src = 0;
  demands[0].dst = 1;
  demands[0].cap = std::nan("");
  std::vector<double> egress = {std::nan(""), 1000.0};
  std::vector<double> ingress = {1000.0, std::nan("")};
  SolveMaxMinRates(&demands, &egress, &ingress);
}

TEST(RateSharingDeathTest, NanCapacityAbortsInsteadOfSilentBreak) {
  EXPECT_DEATH(SolveWithNanInputs(), "max-min filling made no progress");
}

}  // namespace
}  // namespace rdmajoin
