#include "sim/link_fabric.h"

#include <gtest/gtest.h>

#include <limits>
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

TEST(LinkFabric, NextCompletionTimeIsTheFirstAdvanceThatDelivers) {
  // The replay wakes only at NextCompletionTime, so it must name the first
  // instant at which AdvanceTo hands out a completion -- not a head's drain,
  // which is base_latency earlier and delivers nothing. Distinct sizes make
  // the heads drain one at a time, and several drain within one latency.
  FabricConfig f = BasicConfig(4);
  f.message_rate_per_host = 5.0;
  f.base_latency_seconds = 0.05;
  LinkFabric fabric(f);
  uint64_t cookie = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    for (uint32_t d = 0; d < 4; ++d) {
      if (s == d) continue;
      for (int k = 0; k < 3; ++k) {
        fabric.Enqueue(s, d, 50.0 + 7.0 * static_cast<double>(cookie), 0.0, cookie);
        ++cookie;
      }
    }
  }
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<LinkFabric::Completion> done;
  double prev = 0;
  uint64_t delivered = 0;
  while (fabric.NextCompletionTime() != kInf) {
    const double next = fabric.NextCompletionTime();
    ASSERT_GT(next, prev);
    // Advancing anywhere short of `next` pops heads but delivers nothing,
    // and leaves the answer unchanged.
    for (double frac : {0.25, 0.5, 0.999}) {
      done.clear();
      fabric.AdvanceTo(prev + (next - prev) * frac, &done);
      ASSERT_TRUE(done.empty()) << "delivered before " << next;
      ASSERT_EQ(fabric.NextCompletionTime(), next);
    }
    done.clear();
    fabric.AdvanceTo(next, &done);
    ASSERT_FALSE(done.empty()) << "nothing delivered at " << next;
    for (const LinkFabric::Completion& c : done) EXPECT_EQ(c.time, next);
    delivered += done.size();
    prev = next;
  }
  EXPECT_EQ(delivered, cookie);
}

TEST(LinkFabric, EqualShareIsNotWorkConserving) {
  // Host 0 sends to hosts 1 and 2; hosts 3 and 4 also send to host 1, so
  // host 1's ingress holds every link into it at 1000/3. Equal share still
  // gives 0->2 only half of host 0's egress, leaving 1000/6 of it idle:
  // the paper's model (Eqs. 1-5) shares each port equally, it does not
  // redistribute what a flow cannot use.
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

}  // namespace
}  // namespace rdmajoin
