// Cross-validation between the closed-form analytical model (Section 5) and
// the discrete-event replay of actually-executed joins -- the library-level
// equivalent of the paper's Figure 9. Parameterized over cluster types and
// machine counts.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "model/analytical_model.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

// The network is a 4-byte enum, not a bool, so `Case` has no padding bytes:
// gtest prints parameters byte by byte into the test name, and padding left
// uninitialized would make that name differ from build to build.
enum class Network : uint32_t { kFdr = 0, kQdr = 1 };

struct Case {
  Network network;
  uint32_t machines;
};
static_assert(sizeof(Case) == 2 * sizeof(uint32_t), "Case must have no padding");

class ModelVsReplayTest : public ::testing::TestWithParam<Case> {};

TEST_P(ModelVsReplayTest, TotalsAgreeWithinTolerance) {
  const Case c = GetParam();
  const ClusterConfig cluster =
      c.network == Network::kQdr ? QdrCluster(c.machines) : FdrCluster(c.machines);
  const double paper_mtuples = 2048;
  WorkloadSpec spec;
  const double scale = 2048.0;
  spec.inner_tuples = static_cast<uint64_t>(paper_mtuples * 1e6 / scale);
  spec.outer_tuples = spec.inner_tuples;
  auto w = GenerateWorkload(spec, c.machines);
  ASSERT_TRUE(w.ok());
  JoinConfig jc;
  jc.scale_up = scale;
  auto run = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const uint64_t bytes = static_cast<uint64_t>(paper_mtuples * 16e6);
  const ModelEstimate est = Estimate(ParamsFromCluster(cluster, bytes, bytes));

  // The paper reports an average deviation of 0.17 s on totals of 4-11 s
  // (2-8%). Allow 10% here; the network-bound QDR cases where the fluid
  // simulation resolves partial overlap the closed form cannot see get 15%.
  const double tol = est.network_bound ? 0.15 : 0.10;
  EXPECT_NEAR(run->times.TotalSeconds(), est.TotalSeconds(),
              tol * est.TotalSeconds())
      << "cluster " << cluster.name << " machines " << c.machines;
  // Local pass and build/probe phases are deterministic compute: tight.
  EXPECT_NEAR(run->times.local_partition_seconds, est.local_partition_seconds,
              0.02 * est.local_partition_seconds + 1e-6);
  EXPECT_NEAR(run->times.build_probe_seconds, est.build_probe_seconds,
              0.05 * est.build_probe_seconds + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Figure9Grid, ModelVsReplayTest,
    ::testing::Values(Case{Network::kFdr, 2}, Case{Network::kFdr, 3},
                      Case{Network::kFdr, 4}, Case{Network::kQdr, 4},
                      Case{Network::kQdr, 6}, Case{Network::kQdr, 8},
                      Case{Network::kQdr, 10}),
    [](const auto& info) {
      return std::string(info.param.network == Network::kQdr ? "Qdr" : "Fdr") +
             std::to_string(info.param.machines);
    });

TEST(ModelVsReplay, CpuBoundNetworkPassMatchesClosely) {
  // FDR at 2 machines is clearly CPU-bound; the DES and Eq. 3 must agree to
  // within a couple percent on the network pass itself.
  const ClusterConfig cluster = FdrCluster(2);
  WorkloadSpec spec;
  const double scale = 1024.0;
  spec.inner_tuples = static_cast<uint64_t>(2048e6 / scale);
  spec.outer_tuples = spec.inner_tuples;
  auto w = GenerateWorkload(spec, 2);
  ASSERT_TRUE(w.ok());
  JoinConfig jc;
  jc.scale_up = scale;
  auto run = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  ASSERT_TRUE(run.ok());
  const uint64_t bytes = static_cast<uint64_t>(2048.0 * 16e6);
  const ModelEstimate est = Estimate(ParamsFromCluster(cluster, bytes, bytes));
  ASSERT_FALSE(est.network_bound);
  EXPECT_NEAR(run->times.network_partition_seconds, est.network_partition_seconds,
              0.03 * est.network_partition_seconds);
}

}  // namespace
}  // namespace rdmajoin
