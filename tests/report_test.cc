#include "join/report.h"

#include <gtest/gtest.h>

#include <string>

#include "cluster/presets.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

TEST(Report, VerifyAgainstTruthDetectsEveryMismatch) {
  GroundTruth truth;
  truth.expected_matches = 10;
  truth.expected_key_sum = 100;
  truth.expected_inner_rid_sum = 200;
  JoinResultStats good;
  good.matches = 10;
  good.key_sum = 100;
  good.inner_rid_sum = 200;
  EXPECT_EQ(VerifyAgainstTruth(good, truth), "verified (10 matches)");
  JoinResultStats bad_count = good;
  bad_count.matches = 9;
  EXPECT_NE(VerifyAgainstTruth(bad_count, truth).find("MISMATCH"), std::string::npos);
  JoinResultStats bad_key = good;
  bad_key.key_sum = 1;
  EXPECT_NE(VerifyAgainstTruth(bad_key, truth).find("key checksum"),
            std::string::npos);
  JoinResultStats bad_rid = good;
  bad_rid.inner_rid_sum = 1;
  EXPECT_NE(VerifyAgainstTruth(bad_rid, truth).find("rid checksum"),
            std::string::npos);
}

TEST(Report, FormatsFullRunReport) {
  WorkloadSpec spec;
  spec.inner_tuples = 10000;
  spec.outer_tuples = 20000;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok());
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 256.0;
  const ClusterConfig cluster = QdrCluster(4);
  DistributedJoin join(cluster, jc);
  auto result = join.Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());
  const std::string report = FormatRunReport(cluster, *result, &w->truth);
  EXPECT_NE(report.find("QDR cluster"), std::string::npos);
  EXPECT_NE(report.find("network partition"), std::string::npos);
  EXPECT_NE(report.find("build-probe"), std::string::npos);
  EXPECT_NE(report.find("buffer pool"), std::string::npos);
  const ReplayCounters& work = result->replay.counters;
  EXPECT_GT(work.events, 0u);
  EXPECT_GT(work.fabric_steps, 0u);
  EXPECT_NE(report.find("replay work: " + std::to_string(work.events) +
                        " events, " + std::to_string(work.fabric_steps) +
                        " fabric steps, " + std::to_string(work.link_updates) +
                        " link updates"),
            std::string::npos);
  EXPECT_NE(report.find("verified"), std::string::npos);
  // Percentages are present and the total line exists.
  EXPECT_NE(report.find('%'), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(Report, OmitsVerdictWithoutTruth) {
  WorkloadSpec spec;
  spec.inner_tuples = 2000;
  spec.outer_tuples = 2000;
  auto w = GenerateWorkload(spec, 2);
  JoinConfig jc;
  jc.network_radix_bits = 4;
  DistributedJoin join(FdrCluster(2), jc);
  auto result = join.Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());
  const std::string report = FormatRunReport(FdrCluster(2), *result, nullptr);
  EXPECT_EQ(report.find("result:"), std::string::npos);
}

}  // namespace
}  // namespace rdmajoin
