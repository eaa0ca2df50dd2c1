#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/link_fabric.h"

namespace rdmajoin {
namespace {

FabricConfig StressConfig(uint32_t hosts) {
  FabricConfig config;
  config.num_hosts = hosts;
  config.egress_bytes_per_sec = 1000.0;
  config.ingress_bytes_per_sec = 800.0;
  config.message_rate_per_host = 0.0;
  config.base_latency_seconds = 1e-4;
  return config;
}

/// Checks the rate-assignment invariants after a recompute: every link has
/// a finite non-negative rate, and the per-host egress/ingress rate sums stay
/// within capacity (modulo floating-point slack).
void CheckRateInvariants(const LinkFabric& fabric) {
  const FabricConfig& config = fabric.config();
  std::vector<double> egress(config.num_hosts, 0.0);
  std::vector<double> ingress(config.num_hosts, 0.0);
  for (uint32_t src = 0; src < config.num_hosts; ++src) {
    for (uint32_t dst = 0; dst < config.num_hosts; ++dst) {
      const double rate = fabric.LinkRate(src, dst);
      ASSERT_GE(rate, 0.0);
      ASSERT_FALSE(std::isnan(rate));
      egress[src] += rate;
      ingress[dst] += rate;
    }
  }
  const double eps = 1e-6;
  for (uint32_t h = 0; h < config.num_hosts; ++h) {
    EXPECT_LE(egress[h], config.EffectiveEgress() * (1.0 + eps))
        << "egress over capacity at host " << h;
    EXPECT_LE(ingress[h], config.ingress_bytes_per_sec * (1.0 + eps))
        << "ingress over capacity at host " << h;
  }
}

/// Drives the fabric with a long randomized interleaving of Enqueue and
/// AdvanceTo calls and checks global invariants: rates stay within capacity,
/// completions arrive in monotone time order, every message completes
/// exactly once, and delivered bytes equal enqueued bytes.
TEST(FabricStress, LinkFabricRandomizedConservation) {
  const FabricConfig config = StressConfig(5);
  LinkFabric fabric(config);
  std::mt19937 rng(2024);
  std::uniform_int_distribution<uint32_t> host(0, config.num_hosts - 1);
  std::uniform_real_distribution<double> size(1.0, 3000.0);
  std::uniform_real_distribution<double> dt(0.0, 0.4);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  double now = 0.0;
  double injected_bytes = 0.0;
  uint64_t injected_count = 0;
  double last_completion = 0.0;
  uint64_t completed_count = 0;
  std::vector<LinkFabric::Completion> done;
  for (int step = 0; step < 1500; ++step) {
    if (coin(rng) < 0.6) {
      const uint32_t src = host(rng);
      uint32_t dst = host(rng);
      if (dst == src) dst = (dst + 1) % config.num_hosts;
      const double bytes = size(rng);
      ASSERT_NE(fabric.Enqueue(src, dst, bytes, now, step),
                LinkFabric::kInvalidMessage);
      injected_bytes += bytes;
      ++injected_count;
    } else {
      now += dt(rng);
      done.clear();
      fabric.AdvanceTo(now, &done);
      for (const LinkFabric::Completion& c : done) {
        EXPECT_GE(c.time, last_completion);
        EXPECT_LE(c.time, now);
        last_completion = c.time;
        ++completed_count;
      }
    }
    if (step % 50 == 0) CheckRateInvariants(fabric);
  }
  done.clear();
  fabric.AdvanceTo(now + 1e6, &done);
  for (const LinkFabric::Completion& c : done) {
    EXPECT_GE(c.time, last_completion);
    last_completion = c.time;
    ++completed_count;
  }
  EXPECT_EQ(fabric.queued_messages(), 0u);
  EXPECT_EQ(completed_count, injected_count);
  EXPECT_EQ(fabric.messages_delivered(), injected_count);
  EXPECT_NEAR(fabric.total_bytes_delivered(), injected_bytes,
              injected_bytes * 1e-9);
}

TEST(FabricStress, ZeroByteEnqueueIsRejectedInAllBuildModes) {
  const FabricConfig config = StressConfig(2);
  LinkFabric fabric(config);
  EXPECT_EQ(fabric.Enqueue(0, 1, 0.0, 0.0), LinkFabric::kInvalidMessage);
  EXPECT_EQ(fabric.Enqueue(0, 1, -1.0, 0.0), LinkFabric::kInvalidMessage);
  EXPECT_EQ(fabric.Enqueue(0, 1, std::nan(""), 0.0),
            LinkFabric::kInvalidMessage);
  EXPECT_EQ(fabric.queued_messages(), 0u);
  std::vector<LinkFabric::Completion> done;
  fabric.AdvanceTo(1.0, &done);
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(fabric.messages_delivered(), 0u);
  EXPECT_NE(fabric.Enqueue(0, 1, 10.0, 1.0), LinkFabric::kInvalidMessage);
}

}  // namespace
}  // namespace rdmajoin
