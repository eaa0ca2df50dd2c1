#include "timing/run_diff.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "timing/replay.h"
#include "util/json.h"
#include "util/ledger.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Serializes one replayed run into the bench JSON schema (the same shape
/// bench::BenchReporter emits), so DiffRuns can drill into real attribution.
std::string BenchFromReplay(const ReplayReport& replay, uint64_t seed,
                            const std::string& label = "join") {
  std::string out;
  Appendf(&out,
          "{\"schema_version\":1,\"bench\":\"diff_test\",\"scale_up\":1024,"
          "\"seed\":%llu,\"rows\":[{\"label\":\"%s\",\"ok\":true,"
          "\"verified\":true,\"measured_seconds\":%.17g,\"phases\":{"
          "\"histogram_seconds\":%.17g,\"network_partition_seconds\":%.17g,"
          "\"local_partition_seconds\":%.17g,\"build_probe_seconds\":%.17g},"
          "\"attribution\":{\"critical_path\":[",
          static_cast<unsigned long long>(seed), label.c_str(),
          replay.attribution.MakespanSeconds(), replay.phases.histogram_seconds,
          replay.phases.network_partition_seconds,
          replay.phases.local_partition_seconds,
          replay.phases.build_probe_seconds);
  bool first = true;
  for (const CriticalPathStep& step : replay.attribution.CriticalPath()) {
    if (!first) out += ",";
    first = false;
    Appendf(&out,
            "{\"phase\":\"%s\",\"machine\":%u,\"seconds\":%.17g,"
            "\"breakdown\":{\"compute_seconds\":%.17g,"
            "\"network_seconds\":%.17g,\"buffer_stall_seconds\":%.17g,"
            "\"barrier_wait_seconds\":%.17g,\"fault_recovery_seconds\":%.17g}}",
            std::string(JoinPhaseName(step.phase)).c_str(), step.machine,
            step.phase_seconds, step.breakdown.compute_seconds,
            step.breakdown.network_seconds, step.breakdown.buffer_stall_seconds,
            step.breakdown.barrier_wait_seconds,
            step.breakdown.fault_recovery_seconds);
  }
  out += "]}}]}";
  return out;
}

RunArtifacts ArtifactsFromReplay(const ReplayReport& replay, uint64_t seed) {
  auto doc = ParseBenchJson(BenchFromReplay(replay, seed));
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  RunArtifacts artifacts;
  artifacts.bench = std::move(*doc);
  if (replay.spans != nullptr) artifacts.spans = replay.spans->Snapshot();
  return artifacts;
}

JoinRunResult RunJoin(const ClusterConfig& cluster, JoinConfig config) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  spec.seed = 42;
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  config.network_radix_bits = 5;
  config.scale_up = 1024.0;
  DistributedJoin join(cluster, config);
  auto result = join.Run(workload->inner, workload->outer);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

/// A minimal hand-written two-row bench doc for perturbation tests. The
/// network pass of row "r0" takes `net` seconds, with the critical machine's
/// breakdown splitting it into `net_network` + `net_stall` (+ compute).
std::string HandDoc(double net, double net_network, double net_stall,
                    uint32_t machine) {
  std::string out;
  Appendf(&out,
          "{\"schema_version\":1,\"bench\":\"hand\",\"scale_up\":64,"
          "\"seed\":7,\"rows\":[{\"label\":\"r0\",\"ok\":true,"
          "\"verified\":true,\"measured_seconds\":%.17g,\"phases\":{"
          "\"histogram_seconds\":1.0,\"network_partition_seconds\":%.17g,"
          "\"local_partition_seconds\":1.0,\"build_probe_seconds\":1.0},"
          "\"attribution\":{\"critical_path\":["
          "{\"phase\":\"network-partition\",\"machine\":%u,"
          "\"seconds\":%.17g,\"breakdown\":{\"compute_seconds\":%.17g,"
          "\"network_seconds\":%.17g,\"buffer_stall_seconds\":%.17g,"
          "\"barrier_wait_seconds\":0}}]}}]}",
          3.0 + net, net, machine, net,
          net - net_network - net_stall, net_network, net_stall);
  return out;
}

RunArtifacts HandArtifacts(double net, double net_network, double net_stall,
                           uint32_t machine) {
  auto doc = ParseBenchJson(HandDoc(net, net_network, net_stall, machine));
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  RunArtifacts a;
  a.bench = std::move(*doc);
  return a;
}

TEST(RunDiff, IdenticalRunsReportZeroDivergence) {
  JoinRunResult run = RunJoin(QdrCluster(4), JoinConfig{});
  const RunArtifacts a = ArtifactsFromReplay(run.replay, 42);
  const RunArtifacts b = ArtifactsFromReplay(run.replay, 42);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->zero_divergence);
  EXPECT_FALSE(report->HasDivergence());
  EXPECT_EQ(report->verdict, "runs are identical (zero divergence)");
  // Both spans present -> the stage drill-down exists; nothing diverged.
  EXPECT_FALSE(report->stages.empty());
  EXPECT_TRUE(report->flows.empty());
  // Zero tolerances (the CI determinism cross-check) still exit clean.
  BenchDiffOptions exact;
  exact.relative_tolerance = 0;
  exact.absolute_tolerance_seconds = 0;
  auto strict = DiffRuns(a, b, exact);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->HasDivergence());
}

TEST(RunDiff, SlowerRowDrillsToDominantPhaseAndBucket) {
  // B's network pass is 50% longer, all of it in the network bucket.
  const RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  const RunArtifacts b = HandArtifacts(3.0, 2.0, 0.5, 2);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->zero_divergence);
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 1u);
  const RowDelta& rd = report->rows[0];
  EXPECT_TRUE(rd.row.regression);
  EXPECT_FALSE(rd.row.improvement);
  EXPECT_EQ(rd.dominant_phase, "network-partition");
  const PhaseDelta& net = rd.phases[1];
  EXPECT_EQ(net.phase, "network-partition");
  EXPECT_NEAR(net.delta_seconds, 1.0, 1e-12);
  EXPECT_EQ(net.a_machine, 1u);
  EXPECT_EQ(net.b_machine, 2u);
  EXPECT_EQ(net.dominant_bucket, "network");
  EXPECT_NEAR(net.dominant_bucket_share, 1.0, 1e-12);
  // The narrative localizes the movement, e.g.
  // "network-partition +50.0% on machine 2, 100% of it network".
  EXPECT_NE(rd.narrative.find("network-partition"), std::string::npos);
  EXPECT_NE(rd.narrative.find("machine 2"), std::string::npos);
  EXPECT_NE(rd.narrative.find("network"), std::string::npos);
  EXPECT_NE(report->verdict.find("r0"), std::string::npos);
  // The human report prints the drill-down for the slower row.
  const std::string text = FormatRunDiff(*report);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("critical machine 1 -> 2"), std::string::npos);
}

TEST(RunDiff, FasterRowOnlyDrilledWithReportImprovements) {
  const RunArtifacts a = HandArtifacts(3.0, 2.0, 0.5, 1);
  const RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->rows.size(), 1u);
  EXPECT_TRUE(report->rows[0].row.improvement);
  EXPECT_EQ(report->diff.improvements, 1u);
  const std::string quiet = FormatRunDiff(*report, false);
  const std::string loud = FormatRunDiff(*report, true);
  EXPECT_EQ(quiet.find("critical machine"), std::string::npos);
  EXPECT_NE(loud.find("critical machine"), std::string::npos);
}

TEST(RunDiff, LinkDegradeLocalizesToTheNetworkPass) {
  // Same workload and seed, one run fault-free, one with machine 2's ports
  // degraded for the whole network pass. The diff must localize the
  // regression: network-partition dominant, the movement booked in the
  // network/stall/fault buckets, and the narrative naming the machine that
  // now defines the barrier. (With a degraded ingress link the barrier is
  // typically defined by a *peer* stalling on send credits to the slow
  // host, so the critical machine need not be machine 2 itself.)
  JoinRunResult clean = RunJoin(QdrCluster(4), JoinConfig{});

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kLinkDegrade;
  ev.machine = 2;
  ev.start_seconds = 0;
  ev.duration_seconds = 1e9;
  ev.factor = 0.25;
  schedule.events.push_back(ev);
  FaultInjector injector(schedule);
  JoinConfig faulty_config;
  faulty_config.fault_injector = &injector;
  JoinRunResult degraded = RunJoin(QdrCluster(4), faulty_config);

  const RunArtifacts a = ArtifactsFromReplay(clean.replay, 42);
  const RunArtifacts b = ArtifactsFromReplay(degraded.replay, 42);
  BenchDiffOptions options;
  options.relative_tolerance = 0.01;
  options.absolute_tolerance_seconds = 1e-6;
  auto report = DiffRuns(a, b, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 1u);
  const RowDelta& rd = report->rows[0];
  EXPECT_TRUE(rd.row.regression);
  EXPECT_EQ(rd.dominant_phase, "network-partition");
  const PhaseDelta& net = rd.phases[1];
  EXPECT_GT(net.delta_seconds, 0);
  EXPECT_LT(net.b_machine, 4u);
  EXPECT_TRUE(net.dominant_bucket == "network" ||
              net.dominant_bucket == "fault_recovery" ||
              net.dominant_bucket == "buffer_stall")
      << "dominant bucket was " << net.dominant_bucket;
  char machine_tag[32];
  std::snprintf(machine_tag, sizeof(machine_tag), "machine %u", net.b_machine);
  EXPECT_NE(rd.narrative.find(machine_tag), std::string::npos) << rd.narrative;
}

TEST(RunDiff, PerturbedSpansSurfaceTheDivergingFlow) {
  JoinRunResult run = RunJoin(QdrCluster(3), JoinConfig{});
  RunArtifacts a = ArtifactsFromReplay(run.replay, 42);
  RunArtifacts b = ArtifactsFromReplay(run.replay, 42);
  ASSERT_TRUE(a.spans.has_value() && b.spans.has_value());
  ASSERT_FALSE(b.spans->spans.empty());
  WrSpan& victim = b.spans->spans[0];
  victim.stage[4] += 0.5;  // This work request completed half a second late.
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->zero_divergence);
  ASSERT_FALSE(report->flows.empty());
  EXPECT_EQ(report->flows[0].id, victim.id);
  EXPECT_NEAR(report->flows[0].delta_duration, 0.5, 1e-9);
}

TEST(RunDiff, MetricsSnapshotsAreCompared) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto ma = ParseJson(
      "{\"counters\":{\"fabric.delivered\":100},"
      "\"gauges\":{\"join.rate\":{\"value\":2.5}}}");
  auto mb = ParseJson(
      "{\"counters\":{\"fabric.delivered\":120},"
      "\"gauges\":{\"join.rate\":{\"value\":2.5}}}");
  ASSERT_TRUE(ma.ok() && mb.ok());
  a.metrics = std::move(*ma);
  b.metrics = std::move(*mb);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->metrics_compared, 2u);
  EXPECT_EQ(report->metrics_diverged, 1u);
  ASSERT_EQ(report->metrics.size(), 1u);
  EXPECT_EQ(report->metrics[0].name, "counters.fabric.delivered");
  EXPECT_NEAR(report->metrics[0].delta, 20.0, 1e-12);
  EXPECT_FALSE(report->zero_divergence);
  // Bench rows are identical, so no row-level divergence: metrics deepen the
  // forensics but do not trip the gate by themselves.
  EXPECT_FALSE(report->HasDivergence());
  // One-sided artifact presence also kills zero_divergence.
  RunArtifacts c = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto lopsided = DiffRuns(a, c);
  ASSERT_TRUE(lopsided.ok());
  EXPECT_FALSE(lopsided->zero_divergence);
}

TEST(RunDiff, MissingRowIsDivergence) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  // Rename B's row so A's "r0" has no match and B's row is B-only.
  b.bench.rows[0].label = "r1";
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->diff.missing + report->diff.added, 2u);
  EXPECT_FALSE(report->zero_divergence);
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 2u);
  EXPECT_TRUE(report->rows[0].row.missing_in_new);
  EXPECT_TRUE(report->rows[1].row.added_in_new);
  EXPECT_EQ(report->rows[1].narrative, "row only present in run B");
}

TEST(RunDiff, ChangedCountersAreNotZeroDivergence) {
  // The replay's exact work counters ride in each join row; one more event
  // is a different run even though every seconds row is unchanged.
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto counters = [](uint64_t events) {
    return ParseJson("{\"events\":" + std::to_string(events) +
                     ",\"fabric_steps\":10}");
  };
  auto ca = counters(100);
  auto cb = counters(101);
  ASSERT_TRUE(ca.ok() && cb.ok());
  a.bench.rows[0].raw.object_members.emplace_back("counters", std::move(*ca));
  b.bench.rows[0].raw.object_members.emplace_back("counters", std::move(*cb));
  auto report = DiffRuns(a, b, BenchDiffOptions{0, 0});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->zero_divergence);
  EXPECT_FALSE(report->HasDivergence());
  EXPECT_NE(report->verdict.find("within tolerance"), std::string::npos);
}

TEST(RunDiff, RowOkOnlyInRunBIsDivergence) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  a.bench.rows[0].ok = false;
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->diff.added, 1u);
  EXPECT_EQ(report->diff.missing, 0u);
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 1u);
  EXPECT_TRUE(report->rows[0].row.added_in_new);
  // The regression gate lets an added row pass.
  EXPECT_FALSE(report->diff.HasRegressions());
}

/// One measured row of `seconds` in bench "margin".
BenchJsonDocument OneRowDoc(double seconds) {
  auto doc = ParseBenchJson(
      "{\"schema_version\":1,\"bench\":\"margin\",\"scale_up\":1,"
      "\"seed\":1,\"rows\":[{\"label\":\"r\",\"ok\":true,"
      "\"measured_seconds\":" + JsonNumber(seconds) + "}]}");
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return *doc;
}

TEST(DiffMargin, GateRunDiffAndLedgerAgreeAtTheBoundary) {
  struct Case {
    double old_seconds;
    double new_at_margin;  // old + max(rel * old, abs), exactly
    BenchDiffOptions options;
  };
  const Case cases[] = {
      {4.0, 5.0, {0.25, 0.0}},  // the relative margin binds
      {0.5, 0.75, {0.0, 0.25}},  // the absolute margin binds
      {2.0, 2.5, {0.25, 0.5}},  // both margins are equal
  };
  for (const Case& c : cases) {
    for (const double now :
         {c.new_at_margin, std::nextafter(c.new_at_margin, 1e300)}) {
      const bool beyond = now != c.new_at_margin;
      SCOPED_TRACE(JsonNumber(c.old_seconds) + " -> " + JsonNumber(now));
      EXPECT_EQ(ExceedsMargin(c.old_seconds, now, c.options), beyond);

      auto gate = DiffBenchDocuments(OneRowDoc(c.old_seconds), OneRowDoc(now),
                                     c.options);
      ASSERT_TRUE(gate.ok());
      EXPECT_EQ(gate->regressions, beyond ? 1u : 0u);

      RunArtifacts a, b;
      a.bench = OneRowDoc(c.old_seconds);
      b.bench = OneRowDoc(now);
      auto run = DiffRuns(a, b, c.options);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->HasDivergence(), beyond);

      std::vector<LedgerEntry> ledger(3);
      const double points[] = {c.old_seconds, c.old_seconds, now};
      for (size_t i = 0; i < 3; ++i) {
        ledger[i].bench = "margin";
        ledger[i].rows.push_back(LedgerRow{"r", points[i]});
      }
      const std::vector<LedgerDrift> drifts = DetectLedgerDrift(ledger, c.options);
      ASSERT_EQ(drifts.size(), 1u);
      EXPECT_EQ(drifts[0].drift, beyond);
    }
  }
}

TEST(RunDiff, IncomparableDocumentsAreRejected) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  b.bench.bench = "other";
  EXPECT_FALSE(DiffRuns(a, b).ok());
  b.bench.bench = a.bench.bench;
  b.bench.scale_up = 128;
  EXPECT_FALSE(DiffRuns(a, b).ok());
  // Seeds MAY differ (comparing a new seed against history is legitimate);
  // the report records both.
  b.bench.scale_up = a.bench.scale_up;
  b.bench.seed = 99;
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->seed_a, 7u);
  EXPECT_EQ(report->seed_b, 99u);
}

TEST(RunDiff, JsonExportIsDeterministic) {
  const RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  const RunArtifacts b = HandArtifacts(3.0, 2.0, 0.5, 2);
  auto r1 = DiffRuns(a, b);
  auto r2 = DiffRuns(a, b);
  ASSERT_TRUE(r1.ok() && r2.ok());
  const std::string j1 = RunDiffToJson(*r1);
  EXPECT_EQ(j1, RunDiffToJson(*r2));
  EXPECT_NE(j1.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(j1.find("\"zero_divergence\":false"), std::string::npos);
  EXPECT_NE(j1.find("\"dominant_phase\":\"network-partition\""),
            std::string::npos);
  // The export round-trips through the JSON parser.
  EXPECT_TRUE(ParseJson(j1).ok());
}

}  // namespace
}  // namespace rdmajoin
