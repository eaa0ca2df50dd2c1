// Pins the Table 2 hardware presets and Eq. 15 calibration so accidental
// constant drift is caught (every figure depends on these).

#include "cluster/presets.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rdmajoin {
namespace {

TEST(Presets, QdrMatchesTable2AndEq15) {
  const ClusterConfig c = QdrCluster(10);
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.num_machines, 10u);
  EXPECT_EQ(c.cores_per_machine, 8u);
  EXPECT_EQ(c.PartitioningThreads(), 7u);  // One core drains receives.
  EXPECT_EQ(c.memory_per_machine_bytes, 128000000000ull);
  EXPECT_DOUBLE_EQ(c.fabric.egress_bytes_per_sec, 3.4e9);
  EXPECT_DOUBLE_EQ(c.fabric.congestion_bytes_per_sec_per_extra_host, 110e6);
  // Eq. 15 at 10 machines: 3400 - 9*110 = 2410 MB/s.
  EXPECT_DOUBLE_EQ(c.fabric.EffectiveEgress(), 2410e6);
  EXPECT_EQ(c.PortBytesPerSec(), c.fabric.EffectiveEgress());
  EXPECT_DOUBLE_EQ(c.costs.partition_bytes_per_sec, 955e6);
  EXPECT_EQ(c.transport, TransportKind::kRdmaChannel);
  EXPECT_EQ(c.interleave, InterleavePolicy::kInterleaved);
}

TEST(Presets, FdrMatchesTable2) {
  const ClusterConfig c = FdrCluster(4);
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_DOUBLE_EQ(c.fabric.egress_bytes_per_sec, 6.0e9);
  EXPECT_DOUBLE_EQ(c.fabric.congestion_bytes_per_sec_per_extra_host, 0.0);
  EXPECT_EQ(c.memory_per_machine_bytes, 512000000000ull);
  EXPECT_DOUBLE_EQ(c.fabric.EffectiveEgress(), 6.0e9);
}

TEST(Presets, QpiServerTreatsSocketsAsMachines) {
  const ClusterConfig c = QpiServer();
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.num_machines, 4u);
  EXPECT_EQ(c.cores_per_machine, 8u);
  EXPECT_FALSE(c.reserve_receiver_core);  // Stores need no receiver.
  EXPECT_EQ(c.PartitioningThreads(), 8u);
  EXPECT_EQ(c.transport, TransportKind::kRdmaMemory);
  EXPECT_DOUBLE_EQ(c.fabric.egress_bytes_per_sec, 8.4e9);
  // SIMD partitioning passes; no registration cost for plain memory.
  EXPECT_DOUBLE_EQ(c.costs.partition_bytes_per_sec, 1100e6);
  EXPECT_DOUBLE_EQ(c.costs.reg_base_seconds, 0.0);
  EXPECT_DOUBLE_EQ(c.costs.reg_per_page_seconds, 0.0);
  // 512 GB split over 4 sockets.
  EXPECT_EQ(c.memory_per_machine_bytes, 128000000000ull);
}

TEST(Presets, IpoibOverridesTransportOnly) {
  const ClusterConfig c = IpoibCluster(4);
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.transport, TransportKind::kTcp);
  EXPECT_DOUBLE_EQ(c.tcp.bytes_per_sec, 1.8e9);
  // The underlying fabric is still the FDR hardware, but a port moves
  // only what IPoIB sustains.
  EXPECT_DOUBLE_EQ(c.fabric.egress_bytes_per_sec, 6.0e9);
  EXPECT_EQ(c.PortBytesPerSec(), c.tcp.bytes_per_sec);
}

TEST(Presets, MessageRateYieldsFullBandwidthAtSmallMessages) {
  // The fabric saturates once message_size * rate >= port bandwidth; the
  // presets place that point at 4 KiB so that, with latency, Figure 3's
  // 8 KiB saturation reproduces.
  const ClusterConfig c = QdrCluster(2);
  EXPECT_DOUBLE_EQ(c.fabric.message_rate_per_host * 4096.0,
                   c.fabric.egress_bytes_per_sec);
}

TEST(Presets, PresetClusterMapsEveryNameToItsValidatedFactory) {
  EXPECT_EQ(PresetClusterNames(),
            (std::vector<std::string>{"qdr", "fdr", "qpi", "ipoib"}));
  const ClusterConfig direct[] = {QdrCluster(3, 6), FdrCluster(3, 6),
                                  QpiServer(3, 6), IpoibCluster(3, 6)};
  for (size_t i = 0; i < PresetClusterNames().size(); ++i) {
    const std::string& name = PresetClusterNames()[i];
    auto c = PresetCluster(name, 3, 6);
    ASSERT_TRUE(c.ok()) << name << ": " << c.status().ToString();
    EXPECT_EQ(c->name, direct[i].name);
    EXPECT_EQ(c->num_machines, 3u);
    EXPECT_EQ(c->cores_per_machine, 6u);
    EXPECT_EQ(c->transport, direct[i].transport);
    EXPECT_EQ(c->memory_per_machine_bytes, direct[i].memory_per_machine_bytes);
    EXPECT_DOUBLE_EQ(c->fabric.egress_bytes_per_sec,
                     direct[i].fabric.egress_bytes_per_sec);
  }
}

TEST(Presets, PresetClusterRejectsWhatValidateWouldAndUnknownNames) {
  for (const std::string& name : PresetClusterNames()) {
    // Zero machines is rejected before QpiServer divides by it.
    auto no_machines = PresetCluster(name, 0, 8);
    ASSERT_FALSE(no_machines.ok()) << name;
    EXPECT_EQ(no_machines.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(no_machines.status().message().find("machine"), std::string::npos);
    auto no_cores = PresetCluster(name, 4, 0);
    ASSERT_FALSE(no_cores.ok()) << name;
    EXPECT_NE(no_cores.status().message().find("core"), std::string::npos);
  }
  // Validate() runs: QDR's congestion term leaves no bandwidth at 40
  // machines, and a reserved receiver core needs a second core.
  EXPECT_FALSE(PresetCluster("qdr", 40, 8).ok());
  EXPECT_FALSE(PresetCluster("qdr", 2, 1).ok());
  EXPECT_TRUE(PresetCluster("qpi", 2, 1).ok());  // no receiver core reserved
  for (const char* bad : {"", "QDR", "nope", "qdr "}) {
    auto c = PresetCluster(bad, 4, 8);
    ASSERT_FALSE(c.ok()) << bad;
    EXPECT_EQ(c.status().message(),
              "unknown cluster preset '" + std::string(bad) +
                  "' (expected one of qdr|fdr|qpi|ipoib)");
  }
}

TEST(Presets, CostModelDefaultsAreCalibration) {
  const CostModel costs;
  EXPECT_DOUBLE_EQ(costs.partition_bytes_per_sec, 955e6);  // Eq. 15.
  EXPECT_DOUBLE_EQ(costs.histogram_bytes_per_sec, 6000e6);
  EXPECT_DOUBLE_EQ(costs.build_bytes_per_sec, 4000e6);
  EXPECT_DOUBLE_EQ(costs.probe_bytes_per_sec, 4000e6);
  EXPECT_GT(costs.sort_bytes_per_sec, 0.0);
  EXPECT_LT(costs.sort_bytes_per_sec, costs.partition_bytes_per_sec);
  // Registration: base + per-page (Frey & Alonso).
  EXPECT_NEAR(costs.RegistrationSeconds(4096), 20e-6 + 0.25e-6, 1e-12);
  EXPECT_NEAR(costs.RegistrationSeconds(40960), 20e-6 + 10 * 0.25e-6, 1e-12);
  EXPECT_NEAR(costs.DeregistrationSeconds(4096),
              costs.RegistrationSeconds(4096) / 2, 1e-15);
}

}  // namespace
}  // namespace rdmajoin
