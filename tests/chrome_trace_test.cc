#include "timing/chrome_trace.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "timing/span_trace.h"
#include "util/json.h"
#include "util/metrics.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

/// Structural sanity of a JSON document: balanced braces/brackets outside of
/// string literals.
bool BalancedJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

JoinConfig SmallJoinConfig() {
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 1024.0;
  return jc;
}

struct TracedRun {
  JoinRunResult result;
  std::string json;
};

/// Runs a small distributed join with metrics attached and converts its
/// replay into a Chrome trace.
TracedRun RunTracedJoin(MetricsRegistry* metrics) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  auto workload = GenerateWorkload(spec, 4);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  JoinConfig config = SmallJoinConfig();
  config.metrics = metrics;
  DistributedJoin join(QdrCluster(4), config);
  auto result = join.Run(workload->inner, workload->outer);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::string json = ChromeTraceJson(result->replay, metrics);
  return TracedRun{std::move(*result), std::move(json)};
}

TEST(ChromeTrace, ContainsAllFourPhasesForEveryMachine) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  const std::string& json = run.json;
  EXPECT_TRUE(BalancedJson(json)) << json.substr(0, 2000);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* phase :
       {"histogram", "network_partition", "local_partition", "build_probe"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + phase + "\""),
              std::string::npos)
        << "missing phase slice: " << phase;
  }
  for (int m = 0; m < 4; ++m) {
    EXPECT_NE(json.find("\"machine" + std::to_string(m) + "\""),
              std::string::npos)
        << "missing process_name for machine " << m;
    EXPECT_NE(json.find("\"pid\":" + std::to_string(m)), std::string::npos);
  }
  // Phase slices are complete ("X") events with microsecond durations.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, EmitsPerHostUtilizationCounters) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  EXPECT_NE(run.json.find("\"egress MB/s\""), std::string::npos);
  EXPECT_NE(run.json.find("\"ingress MB/s\""), std::string::npos);
  EXPECT_NE(run.json.find("\"ph\":\"C\""), std::string::npos);
  // The fabric recorded activity for every host.
  for (int h = 0; h < 4; ++h) {
    const TimeSeries* ts = metrics.FindTimeSeries(
        "fabric.host" + std::to_string(h) + ".egress_active_bytes");
    ASSERT_NE(ts, nullptr) << "host " << h;
    EXPECT_GT(ts->total(), 0.0) << "host " << h;
  }
}

TEST(ChromeTrace, EmitsBindingConstraintTracksForLabeledDatasets) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  // The stacked per-host "bound flows" counter row exists, with one series
  // per constraint kind...
  EXPECT_NE(run.json.find("\"bound flows\""), std::string::npos);
  EXPECT_NE(run.json.find("\"msg_rate\""), std::string::npos);
  // ...and constraint-switch instants are well-formed when present
  // ("i"-phase, thread scope).
  if (run.json.find(" bound: ") != std::string::npos) {
    EXPECT_NE(run.json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(run.json.find("\"s\":\"t\""), std::string::npos);
  }
  EXPECT_TRUE(BalancedJson(run.json));
}

TEST(ChromeTrace, UnlabeledDatasetsStayByteIdenticalToPreConstraintExport) {
  // A dataset without constraint labels (what a schema v1 recorder kept)
  // must not add any forensics rows: the export is what a pre-constraint
  // recorder produced. Feed a recorder the run's segments with kNone labels.
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  ASSERT_NE(run.result.replay.spans, nullptr);
  auto unlabeled = std::make_shared<SpanRecorder>();
  for (const FlowSegment& g : run.result.replay.spans->Snapshot().segments) {
    unlabeled->OnFlowSegment(g.flow, g.src, g.dst, g.t0, g.t1, g.rate,
                             RateConstraint::kNone, 0);
  }
  ReplayReport report = run.result.replay;
  report.spans = unlabeled;
  const std::string json = ChromeTraceJson(report, nullptr);
  EXPECT_EQ(json.find("bound flows"), std::string::npos);
  EXPECT_EQ(json.find(" bound: "), std::string::npos);
  EXPECT_TRUE(BalancedJson(json));
}

TEST(ChromeTrace, MetricsSnapshotAgreesWithReport) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  // Acceptance criterion: the snapshot's per-machine join-phase gauges match
  // the replay report's machine_phases.
  const ReplayReport& replay = run.result.replay;
  ASSERT_EQ(replay.machine_phases.size(), 4u);
  for (int m = 0; m < 4; ++m) {
    const std::string prefix = "join.machine" + std::to_string(m) + ".";
    const Gauge* net = metrics.FindGauge(prefix + "network_partition_seconds");
    ASSERT_NE(net, nullptr);
    EXPECT_DOUBLE_EQ(net->value(),
                     replay.machine_phases[m].network_partition_seconds);
    const Gauge* hist = metrics.FindGauge(prefix + "histogram_seconds");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->value(), replay.machine_phases[m].histogram_seconds);
  }
}

TEST(ChromeTrace, TraceWithoutMetricsStillHasPhases) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  const std::string json = ChromeTraceJson(run.result.replay, nullptr);
  EXPECT_TRUE(BalancedJson(json));
  EXPECT_NE(json.find("\"build_probe\""), std::string::npos);
  EXPECT_EQ(json.find("MB/s"), std::string::npos);
}

TEST(ChromeTrace, WriteChromeTraceFileRoundTrips) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  const std::string path = ::testing::TempDir() + "/chrome_trace_test.json";
  ASSERT_TRUE(WriteChromeTraceFile(path, run.result.replay, &metrics).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), run.json);
}

TEST(ChromeTrace, EmitsCausalFlowArrowsForSpans) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  ASSERT_NE(run.result.replay.spans, nullptr);
  const std::string& json = run.json;
  EXPECT_TRUE(BalancedJson(json));
  // A flow arrow starts at the sender slice ("s"), ends at the receiver
  // slice ("f", binding to the enclosing slice), under the "wr" category.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"wr\""), std::string::npos);
  // Span slices landed on the partitioning-thread and receiver rows.
  EXPECT_NE(json.find("part thread"), std::string::npos);
  EXPECT_NE(json.find("receiver core"), std::string::npos);
}

TEST(ChromeTrace, SpanEventsCanBeCappedAndDisabled) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  ChromeTraceOptions none;
  none.max_spans = 0;
  const std::string without =
      ChromeTraceJson(run.result.replay, &metrics, none);
  EXPECT_TRUE(BalancedJson(without));
  EXPECT_EQ(without.find("\"ph\":\"s\""), std::string::npos);
  ChromeTraceOptions one;
  one.max_spans = 1;
  const std::string single = ChromeTraceJson(run.result.replay, &metrics, one);
  EXPECT_TRUE(BalancedJson(single));
  // Exactly one arrow: one "s" and one "f" event.
  size_t starts = 0, pos = 0;
  while ((pos = single.find("\"ph\":\"s\"", pos)) != std::string::npos) {
    ++starts;
    pos += 8;
  }
  EXPECT_EQ(starts, 1u);
}

TEST(ChromeTrace, EscapesHostileLabelStrings) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  ChromeTraceOptions options;
  options.label = "qdr \"4x8\"\\\n\ttest\x01";
  const std::string json =
      ChromeTraceJson(run.result.replay, &metrics, options);
  EXPECT_TRUE(BalancedJson(json)) << json.substr(0, 2000);
  // The raw quote/backslash/control bytes must not survive unescaped.
  EXPECT_NE(json.find("qdr \\\"4x8\\\"\\\\\\n\\ttest\\u0001"),
            std::string::npos);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->StringOr("label", ""), options.label);
}

TEST(ChromeTrace, WriteToUnwritablePathFails) {
  MetricsRegistry metrics;
  TracedRun run = RunTracedJoin(&metrics);
  EXPECT_FALSE(WriteChromeTraceFile("/nonexistent-dir/trace.json",
                                    run.result.replay, &metrics)
                   .ok());
}

}  // namespace
}  // namespace rdmajoin
