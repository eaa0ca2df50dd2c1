#include "timing/span_query.h"

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "sim/fabric.h"
#include "timing/span_trace.h"
#include "util/json.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

WrSpan MakeSpan(uint64_t id, double posted, double credit, double admitted,
                double delivered, double completed) {
  WrSpan s;
  s.id = id;
  s.stage[0] = posted;
  s.stage[1] = credit;
  s.stage[2] = admitted;
  s.stage[3] = delivered;
  s.stage[4] = completed;
  return s;
}

SpanDataset SyntheticDataset() {
  SpanDataset ds;
  // Durations 1.0 / 2.0 / 0.5; credit waits 0.5 / 0.0 / 0.25.
  ds.spans.push_back(MakeSpan(1, 0.0, 0.5, 0.6, 0.9, 1.0));
  ds.spans.push_back(MakeSpan(2, 1.0, 1.0, 1.1, 2.9, 3.0));
  ds.spans.push_back(MakeSpan(3, 2.0, 2.25, 2.3, 2.4, 2.5));
  ds.spans_recorded = 3;
  return ds;
}

TEST(SpanQuery, TopSpansByDurationOrdersAndCaps) {
  const SpanDataset ds = SyntheticDataset();
  const std::vector<WrSpan> top = TopSpansByDuration(ds, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 2u);
  EXPECT_EQ(top[1].id, 1u);
  // k larger than the population returns everything.
  EXPECT_EQ(TopSpansByDuration(ds, 10).size(), 3u);
  // An incomplete span (no completion) is skipped, not sorted as garbage.
  SpanDataset with_incomplete = ds;
  WrSpan open;
  open.id = 4;
  open.stage[0] = 0.0;
  with_incomplete.spans.push_back(open);
  EXPECT_EQ(TopSpansByDuration(with_incomplete, 10).size(), 3u);
}

TEST(SpanQuery, TopSpansByStageSelectsTheStageInterval) {
  const SpanDataset ds = SyntheticDataset();
  const std::vector<WrSpan> top =
      TopSpansByStage(ds, SpanStage::kCreditAcquired, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 1u);  // 0.5 s credit wait
  EXPECT_EQ(top[1].id, 3u);  // 0.25 s
}

TEST(SpanQuery, TiesBreakByAscendingId) {
  SpanDataset ds;
  ds.spans.push_back(MakeSpan(7, 0, 0, 0, 1, 1));
  ds.spans.push_back(MakeSpan(3, 1, 1, 1, 2, 2));
  const std::vector<WrSpan> top = TopSpansByDuration(ds, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 3u);
  EXPECT_EQ(top[1].id, 7u);
}

TEST(SpanQuery, StageStatsNearestRankPercentiles) {
  SpanDataset ds;
  // 100 spans with credit waits 0.01 .. 1.00.
  for (int i = 1; i <= 100; ++i) {
    const double wait = i / 100.0;
    ds.spans.push_back(MakeSpan(i, 0.0, wait, wait, wait, wait));
  }
  const StageStats st = ComputeStageStats(ds, SpanStage::kCreditAcquired);
  EXPECT_EQ(st.count, 100u);
  EXPECT_DOUBLE_EQ(st.p50, 0.50);
  EXPECT_DOUBLE_EQ(st.p90, 0.90);
  EXPECT_DOUBLE_EQ(st.p99, 0.99);
  EXPECT_DOUBLE_EQ(st.max, 1.00);
  EXPECT_NEAR(st.total, 50.5, 1e-9);
  // Empty population.
  const StageStats empty =
      ComputeStageStats(SpanDataset{}, SpanStage::kDelivered);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(SpanQuery, ConcurrentFlowSegmentsSharePortAndOverlap) {
  SpanDataset ds;
  WrSpan s = MakeSpan(1, 0.0, 0.0, 1.0, 2.0, 2.0);
  s.src = 0;
  s.dst = 1;
  s.flow = 10;
  ds.spans.push_back(s);
  ds.segments.push_back(FlowSegment{10, 0, 1, 1.0, 2.0, 1e9});  // own flow
  ds.segments.push_back(FlowSegment{11, 0, 2, 1.2, 1.8, 1e9});  // shares egress
  ds.segments.push_back(FlowSegment{12, 2, 1, 0.5, 1.5, 1e9});  // shares ingress
  ds.segments.push_back(FlowSegment{13, 2, 3, 1.0, 2.0, 1e9});  // disjoint ports
  ds.segments.push_back(FlowSegment{14, 0, 2, 2.5, 3.0, 1e9});  // after window
  const std::vector<FlowSegment> conc = ConcurrentFlowSegments(ds, s);
  ASSERT_EQ(conc.size(), 2u);
  EXPECT_EQ(conc[0].flow, 11u);
  EXPECT_EQ(conc[1].flow, 12u);
}

std::string FirstViolation(const SpanInvariantReport& report) {
  return report.violations.empty() ? std::string() : report.violations.front();
}

// ---------------------------------------------------------------------------
// Bottleneck forensics: constraint attribution, congestion analysis, and the
// label-tightness invariant on synthetic labeled datasets.

FlowSegment MakeSeg(uint64_t flow, uint32_t src, uint32_t dst, double t0,
                    double t1, double rate, RateConstraint bound,
                    uint32_t bound_host) {
  FlowSegment g;
  g.flow = flow;
  g.src = src;
  g.dst = dst;
  g.t0 = t0;
  g.t1 = t1;
  g.rate = rate;
  g.bound = bound;
  g.bound_host = bound_host;
  return g;
}

/// Three senders simultaneously ingress-bound at host 3 for [0, 1] -- the
/// canonical incast, exactly consistent with equal-share at egress = ingress
/// = 100 B/s (each sender's own share is 100, the shared ingress port gives
/// 100/3 each, so ingress binds at host 3).
SpanDataset IncastDataset() {
  SpanDataset ds;
  const double rate = 100.0 / 3.0;
  for (uint32_t s = 0; s < 3; ++s) {
    ds.segments.push_back(MakeSeg(10 + s, s, 3, 0.0, 1.0, rate,
                                  RateConstraint::kReceiverIngress, 3));
  }
  ds.segments_recorded = 3;
  return ds;
}

ConstraintCheckContext IncastContext() {
  ConstraintCheckContext ctx;
  ctx.num_hosts = 4;
  ctx.egress_bytes_per_sec = 100.0;
  ctx.ingress_bytes_per_sec = 100.0;
  ctx.message_rate_per_host = 0.0;
  return ctx;
}

TEST(ConstraintForensics, BreakdownDominantPrefersLowerEnumOnTies) {
  ConstraintBreakdown b;
  EXPECT_EQ(b.dominant(), RateConstraint::kNone);
  b.seconds[static_cast<int>(RateConstraint::kSenderEgress)] = 2.0;
  b.seconds[static_cast<int>(RateConstraint::kReceiverIngress)] = 2.0;
  EXPECT_EQ(b.dominant(), RateConstraint::kSenderEgress);
  b.seconds[static_cast<int>(RateConstraint::kReceiverIngress)] = 2.5;
  EXPECT_EQ(b.dominant(), RateConstraint::kReceiverIngress);
  EXPECT_DOUBLE_EQ(b.labeled_total(), 4.5);
}

TEST(ConstraintForensics, FlowAndDatasetBreakdownsAreTimeWeighted) {
  SpanDataset ds;
  ds.segments.push_back(
      MakeSeg(7, 0, 1, 0.0, 2.0, 50.0, RateConstraint::kSenderEgress, 0));
  ds.segments.push_back(
      MakeSeg(7, 0, 1, 2.0, 2.5, 30.0, RateConstraint::kReceiverIngress, 1));
  ds.segments.push_back(
      MakeSeg(8, 1, 0, 0.0, 3.0, 10.0, RateConstraint::kMessageRate, 1));
  const ConstraintBreakdown flow = FlowConstraintBreakdown(ds, 7);
  EXPECT_DOUBLE_EQ(
      flow.seconds[static_cast<int>(RateConstraint::kSenderEgress)], 2.0);
  EXPECT_DOUBLE_EQ(
      flow.seconds[static_cast<int>(RateConstraint::kReceiverIngress)], 0.5);
  EXPECT_EQ(flow.dominant(), RateConstraint::kSenderEgress);
  const ConstraintBreakdown all = DatasetConstraintBreakdown(ds);
  EXPECT_DOUBLE_EQ(
      all.seconds[static_cast<int>(RateConstraint::kMessageRate)], 3.0);
  EXPECT_DOUBLE_EQ(all.labeled_total(), 5.5);
}

TEST(ConstraintForensics, CongestionTimelinesAttributeToTheBindingHost) {
  SpanDataset ds = IncastDataset();
  CongestionOptions opts;
  opts.timeline_buckets = 4;
  const CongestionReport report = ComputeCongestion(ds, opts);
  EXPECT_DOUBLE_EQ(report.t_begin, 0.0);
  EXPECT_DOUBLE_EQ(report.t_end, 1.0);
  ASSERT_EQ(report.hosts.size(), 4u);
  // All three flow-seconds land on host 3's ingress track; the senders'
  // tracks stay empty.
  double host3_ingress = 0;
  for (double v : report.hosts[3].ingress_bound) host3_ingress += v;
  EXPECT_NEAR(host3_ingress, 3.0, 1e-9);
  for (uint32_t h = 0; h < 3; ++h) {
    for (double v : report.hosts[h].ingress_bound) EXPECT_EQ(v, 0.0);
    for (double v : report.hosts[h].egress_bound) EXPECT_EQ(v, 0.0);
  }
  EXPECT_NEAR(report.totals.seconds[static_cast<int>(
                  RateConstraint::kReceiverIngress)],
              3.0, 1e-9);
}

TEST(ConstraintForensics, IncastDetectorFindsConvergingSenders) {
  SpanDataset ds = IncastDataset();
  const CongestionReport report = ComputeCongestion(ds);
  ASSERT_EQ(report.incasts.size(), 1u);
  EXPECT_EQ(report.incasts[0].dst, 3u);
  EXPECT_DOUBLE_EQ(report.incasts[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(report.incasts[0].t1, 1.0);
  EXPECT_EQ(report.incasts[0].peak_senders, 3u);
  EXPECT_NEAR(report.incasts[0].bytes, 100.0, 1e-9);
  // Two senders are below the default threshold...
  SpanDataset two = ds;
  two.segments.pop_back();
  EXPECT_TRUE(ComputeCongestion(two).incasts.empty());
  // ...but count when the threshold is lowered.
  CongestionOptions loose;
  loose.incast_min_senders = 2;
  EXPECT_EQ(ComputeCongestion(two, loose).incasts.size(), 1u);
}

TEST(ConstraintForensics, RankSlowFlowsVerdictsTransitVsCreditWait) {
  SpanDataset ds;
  // Span 1: credit wait 0.5 dominates its 0.3 transit -> credit verdict.
  WrSpan a = MakeSpan(1, 0.0, 0.5, 0.6, 0.9, 1.0);
  a.flow = 10;
  ds.spans.push_back(a);
  ds.segments.push_back(
      MakeSeg(10, 0, 1, 0.6, 0.9, 100.0, RateConstraint::kSenderEgress, 0));
  // Span 2: negligible credit wait, ingress-bound transit -> ingress.
  WrSpan b = MakeSpan(2, 0.0, 0.0, 0.1, 0.9, 0.95);
  b.flow = 11;
  ds.spans.push_back(b);
  ds.segments.push_back(
      MakeSeg(11, 0, 1, 0.1, 0.9, 50.0, RateConstraint::kReceiverIngress, 1));
  const std::vector<FlowSlowEntry> ranked = RankSlowFlows(ds, 5);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].span.id, 1u);  // 1.0 s duration beats 0.95
  EXPECT_EQ(ranked[0].verdict, RateConstraint::kCreditStarved);
  EXPECT_DOUBLE_EQ(ranked[0].credit_wait_seconds, 0.5);
  EXPECT_EQ(ranked[1].span.id, 2u);
  EXPECT_EQ(ranked[1].verdict, RateConstraint::kReceiverIngress);
}

TEST(ConstraintForensics, CheckPassesOnAConsistentLabeledDataset) {
  const SpanInvariantReport inv =
      CheckConstraintInvariants(IncastDataset(), IncastContext());
  EXPECT_TRUE(inv.ok()) << FirstViolation(inv);
}

TEST(ConstraintForensics, CheckFlagsUnlabeledRateLimitedFlow) {
  SpanDataset ds = IncastDataset();
  ds.segments[0].bound = RateConstraint::kNone;
  ds.segments[0].bound_host = 0;
  const SpanInvariantReport inv =
      CheckConstraintInvariants(ds, IncastContext());
  EXPECT_FALSE(inv.ok());
  EXPECT_NE(FirstViolation(inv).find("no binding constraint"),
            std::string::npos)
      << FirstViolation(inv);
}

TEST(ConstraintForensics, CheckFlagsConstrainingHostOnTheWrongSide) {
  SpanDataset ds = IncastDataset();
  // An ingress label must name the destination, not the source.
  ds.segments[1].bound_host = ds.segments[1].src;
  EXPECT_FALSE(CheckConstraintInvariants(ds, IncastContext()).ok());
}

TEST(ConstraintForensics, CheckFlagsMislabeledConstraintKind) {
  SpanDataset ds = IncastDataset();
  // The shares say ingress binds (100/3 < 100); claiming egress is a lie.
  for (FlowSegment& g : ds.segments) {
    g.bound = RateConstraint::kSenderEgress;
    g.bound_host = g.src;
  }
  EXPECT_FALSE(CheckConstraintInvariants(ds, IncastContext()).ok());
}

TEST(ConstraintForensics, CheckFlagsNonTightRate) {
  SpanDataset ds = IncastDataset();
  // Correct label, wrong rate: the labeled share does not reproduce it.
  ds.segments[2].rate = 50.0;
  EXPECT_FALSE(CheckConstraintInvariants(ds, IncastContext()).ok());
}

TEST(ConstraintForensics, CheckSkipsTightnessWhenSegmentsWereDropped) {
  SpanDataset ds = IncastDataset();
  ds.segments[2].rate = 50.0;  // would fail tightness...
  ds.segments_dropped = 1;     // ...but the reconstruction is partial
  const SpanInvariantReport inv =
      CheckConstraintInvariants(ds, IncastContext());
  EXPECT_TRUE(inv.ok()) << FirstViolation(inv);
}

TEST(ConstraintForensics, FormatCongestionReportNamesTheArtifacts) {
  const SpanDataset ds = IncastDataset();
  const CongestionReport report = ComputeCongestion(ds);
  const std::string text = FormatCongestionReport(ds, report, 3);
  EXPECT_NE(text.find("constraint totals"), std::string::npos);
  EXPECT_NE(text.find("incast"), std::string::npos);
  EXPECT_NE(text.find("host 3"), std::string::npos);
  const std::string json = CongestionReportToJson(report);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("hosts"), nullptr);
  EXPECT_NE(parsed->Find("incasts"), nullptr);
  EXPECT_NE(parsed->Find("totals"), nullptr);
}

TEST(SpanQuery, InvariantsPassOnCleanSyntheticData) {
  const SpanDataset ds = SyntheticDataset();
  const SpanInvariantReport report = CheckSpanInvariants(ds);
  EXPECT_TRUE(report.ok()) << FirstViolation(report);
  EXPECT_EQ(report.spans_checked, 3u);
}

TEST(SpanQuery, InvariantsFlagMissingDelivery) {
  SpanDataset ds = SyntheticDataset();
  ds.spans[1].stage[static_cast<int>(SpanStage::kDelivered)] = kSpanUnset;
  const SpanInvariantReport report = CheckSpanInvariants(ds);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("exactly one delivery"),
            std::string::npos);
}

TEST(SpanQuery, InvariantsFlagCausalDisorder) {
  SpanDataset ds = SyntheticDataset();
  // Delivery before fabric admission.
  ds.spans[0].stage[static_cast<int>(SpanStage::kDelivered)] = 0.1;
  EXPECT_FALSE(CheckSpanInvariants(ds).ok());
}

TEST(SpanQuery, InvariantsFlagCreditWaitMismatchAgainstThreadMarks) {
  SpanDataset ds = SyntheticDataset();
  for (WrSpan& s : ds.spans) {
    s.machine = 0;
    s.thread = 0;
  }
  // Spans say 0.5 + 0.0 + 0.25; the thread mark disagrees.
  ds.threads.push_back(ThreadMark{0, 0, 3.0, 2.0, 0.75, 0.0});
  EXPECT_TRUE(CheckSpanInvariants(ds).ok());
  ds.threads[0].credit_stall_seconds = 0.80;
  const SpanInvariantReport report = CheckSpanInvariants(ds);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("credit"), std::string::npos);
}

TEST(SpanQuery, InvariantsFlagFlowByteLoss) {
  SpanDataset ds;
  WrSpan s = MakeSpan(1, 0.0, 0.0, 0.0, 1.0, 1.0);
  s.flow = 5;
  s.wire_bytes = 1e9;
  ds.spans.push_back(s);
  // Only half the bytes show up in the telemetry.
  ds.segments.push_back(FlowSegment{5, 0, 1, 0.0, 0.5, 1e9});
  const SpanInvariantReport report = CheckSpanInvariants(ds);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("rate segments integrate"),
            std::string::npos);
}

TEST(SpanQuery, InvariantsFlagExecCountInversions) {
  SpanDataset ds;
  ExecDeviceCounts d;
  d.device = 0;
  d.posted[0] = 1;
  d.completed[0] = 2;  // more completions than posts
  ds.devices.push_back(d);
  EXPECT_FALSE(CheckSpanInvariants(ds).ok());
}

TEST(SpanQuery, CreditWaitSumsPerThread) {
  SpanDataset ds = SyntheticDataset();
  ds.spans[0].machine = 0;
  ds.spans[0].thread = 0;
  ds.spans[1].machine = 0;
  ds.spans[1].thread = 1;
  ds.spans[2].machine = 0;
  ds.spans[2].thread = 0;
  EXPECT_DOUBLE_EQ(CreditWaitSeconds(ds, 0, 0), 0.75);
  EXPECT_DOUBLE_EQ(CreditWaitSeconds(ds, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(CreditWaitSeconds(ds, 1, 0), 0.0);
}

TEST(SpanQuery, LeadThreadSelectionMatchesAttributionTieBreak) {
  SpanDataset ds;
  // Machine 0: thread 1 finishes last. Machine 1: tie between threads 0 and
  // 1 -- the first in (machine, thread) order must win.
  ds.threads.push_back(ThreadMark{0, 0, 5.0, 0, 0.1, 0});
  ds.threads.push_back(ThreadMark{0, 1, 6.0, 0, 0.2, 0});
  ds.threads.push_back(ThreadMark{1, 0, 4.0, 0, 0.3, 0});
  ds.threads.push_back(ThreadMark{1, 1, 4.0, 0, 0.4, 0});
  const std::vector<double> lead = LeadThreadCreditWaitByMachine(ds, 2);
  ASSERT_EQ(lead.size(), 2u);
  EXPECT_DOUBLE_EQ(lead[0], 0.2);
  EXPECT_DOUBLE_EQ(lead[1], 0.3);
}

TEST(SpanQuery, FormatSpanReportContainsTablesAndVerdict) {
  const SpanDataset ds = SyntheticDataset();
  const std::string report = FormatSpanReport(ds, 2);
  EXPECT_NE(report.find("stage latencies"), std::string::npos);
  EXPECT_NE(report.find("top 2 spans by duration"), std::string::npos);
  EXPECT_NE(report.find("top 2 spans by credit wait"), std::string::npos);
  EXPECT_NE(report.find("invariants: OK"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replayed-run properties: the invariants hold on every configuration the
// acceptance criteria call out, and the span data cross-checks the PR 3
// attribution exactly.

struct ReplayedRun {
  JoinRunResult result;
  SpanDataset dataset;
};

ReplayedRun RunJoin(const ClusterConfig& cluster, JoinConfig config,
                    double zipf = 0.0) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  spec.zipf_theta = zipf;
  spec.seed = 42;
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  config.network_radix_bits = 5;
  config.scale_up = 1024.0;
  DistributedJoin join(cluster, config);
  auto result = join.Run(workload->inner, workload->outer);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->replay.spans, nullptr)
      << "spans must be on by default";
  SpanDataset ds = result->replay.spans->Snapshot();
  return ReplayedRun{std::move(*result), std::move(ds)};
}

void ExpectCleanRun(const ReplayedRun& run) {
  EXPECT_EQ(run.dataset.spans_dropped, 0u);
  EXPECT_EQ(run.dataset.late_stage_updates, 0u);
  EXPECT_GT(run.dataset.spans.size(), 0u);
  for (const WrSpan& s : run.dataset.spans) {
    EXPECT_TRUE(s.complete()) << "span " << s.id;
  }
  const SpanInvariantReport inv = CheckSpanInvariants(run.dataset);
  EXPECT_TRUE(inv.ok()) << FirstViolation(inv);
}

/// The fabric configuration the run's network pass used -- the same
/// construction as timing/replay.cc and `rdmajoin_explain --congestion`.
ConstraintCheckContext ContextFor(const ClusterConfig& cluster) {
  FabricConfig fc = cluster.fabric;
  fc.num_hosts = cluster.num_machines;
  if (cluster.transport == TransportKind::kTcp) {
    fc.egress_bytes_per_sec = cluster.tcp.bytes_per_sec;
    fc.ingress_bytes_per_sec = cluster.tcp.bytes_per_sec;
    fc.message_rate_per_host = 0.0;
  }
  return ConstraintCheckContextFromFabric(fc);
}

/// Every recorded segment carries a label and every label is tight against
/// the fabric the run actually used.
void ExpectConstraintsTight(const ReplayedRun& run,
                            const ConstraintCheckContext& ctx) {
  bool labeled = false;
  for (const FlowSegment& g : run.dataset.segments) {
    if (g.bound != RateConstraint::kNone) labeled = true;
  }
  EXPECT_TRUE(labeled) << "replay produced no binding-constraint labels";
  const SpanInvariantReport inv =
      CheckConstraintInvariants(run.dataset, ctx);
  EXPECT_TRUE(inv.ok()) << FirstViolation(inv);
}

/// Per machine, the summed credit waits of the lead thread's spans must
/// reproduce the attribution's buffer-stall seconds to 1e-9.
void ExpectCreditWaitMatchesAttribution(const ReplayedRun& run,
                                        uint32_t num_machines) {
  const std::vector<double> lead =
      LeadThreadCreditWaitByMachine(run.dataset, num_machines);
  for (uint32_t m = 0; m < num_machines; ++m) {
    const double attributed = run.result.replay.attribution.machines[m]
                                  .at(JoinPhase::kNetworkPartition)
                                  .buffer_stall_seconds;
    EXPECT_NEAR(lead[m], attributed, 1e-9) << "machine " << m;
  }
}

TEST(SpanReplay, UniformJoinSatisfiesInvariants) {
  const ClusterConfig cluster = QdrCluster(4);
  ReplayedRun run = RunJoin(cluster, JoinConfig{});
  ExpectCleanRun(run);
  ExpectCreditWaitMatchesAttribution(run, 4);
  EXPECT_FALSE(run.dataset.threads.empty());
  EXPECT_FALSE(run.dataset.segments.empty());
  ExpectConstraintsTight(run, ContextFor(cluster));
}

TEST(SpanReplay, SkewedJoinWithStealingSatisfiesInvariants) {
  JoinConfig config;
  config.assignment = AssignmentPolicy::kSkewAware;
  config.enable_work_stealing = true;
  const ClusterConfig cluster = QdrCluster(4);
  ReplayedRun run = RunJoin(cluster, config, /*zipf=*/1.2);
  ExpectCleanRun(run);
  ExpectCreditWaitMatchesAttribution(run, 4);
  ExpectConstraintsTight(run, ContextFor(cluster));
}

TEST(SpanReplay, NonInterleavedSendsAreStrictlySerializedPerThread) {
  ClusterConfig cluster = FdrCluster(3);
  cluster.interleave = InterleavePolicy::kNonInterleaved;
  ReplayedRun run = RunJoin(cluster, JoinConfig{});
  ExpectCleanRun(run);
  ExpectCreditWaitMatchesAttribution(run, 3);
  ExpectConstraintsTight(run, ContextFor(cluster));
  // The causal property of the non-interleaved variant: a thread's next span
  // cannot be posted before its previous span completed (every send blocks
  // until its transfer finishes -- Figure 5b's whole point).
  std::map<std::pair<uint32_t, uint32_t>, const WrSpan*> last;
  int checked = 0;
  for (const WrSpan& s : run.dataset.spans) {
    auto key = std::make_pair(s.machine, s.thread);
    auto it = last.find(key);
    if (it != last.end() && it->second->id < s.id) {
      EXPECT_GE(s.stage[static_cast<int>(SpanStage::kPosted)],
                it->second->stage[static_cast<int>(SpanStage::kCompleted)] -
                    1e-12)
          << "span " << s.id << " posted before span " << it->second->id
          << " completed";
      ++checked;
    }
    if (it == last.end() || it->second->id < s.id) last[key] = &s;
  }
  EXPECT_GT(checked, 0);
}

TEST(SpanReplay, OneSidedReadPullsAreMarkedAsPulls) {
  ClusterConfig cluster = QdrCluster(4);
  cluster.transport = TransportKind::kRdmaRead;
  JoinConfig config;
  config.buffers_per_partition = 1;
  ReplayedRun run = RunJoin(cluster, config);
  ExpectCleanRun(run);
  ExpectConstraintsTight(run, ContextFor(cluster));
  int pulls = 0;
  for (const WrSpan& s : run.dataset.spans) {
    if (s.pull) {
      ++pulls;
      // A pull's bytes leave the remote machine, not the issuer.
      EXPECT_NE(s.src, s.machine) << "span " << s.id;
    }
  }
  EXPECT_GT(pulls, 0) << "one-sided transport must produce pull spans";
}

TEST(SpanReplay, ChaosScheduleRunKeepsConstraintLabelsTight) {
  const ClusterConfig cluster = QdrCluster(4);
  const FaultInjector injector(MakeChaosSchedule(1337, 4));
  ASSERT_TRUE(injector.active());
  JoinConfig config;
  config.fault_injector = &injector;
  config.fault_policy = FaultPolicy::kRecover;
  ReplayedRun run = RunJoin(cluster, config);
  const SpanInvariantReport span_inv = CheckSpanInvariants(run.dataset);
  EXPECT_TRUE(span_inv.ok()) << FirstViolation(span_inv);
  // The constraint check must see the fault schedule's capacity scales:
  // inside a degrade window a host's fair share shrinks by the same factor
  // the replay applied, and flap windows (scale 0) skip tightness.
  ConstraintCheckContext ctx = ContextFor(cluster);
  ctx.egress_scale = [&injector](uint32_t host, double t) {
    return injector.EgressScale(host, t);
  };
  ctx.ingress_scale = [&injector](uint32_t host, double t) {
    return injector.IngressScale(host, t);
  };
  ExpectConstraintsTight(run, ctx);
}

TEST(SpanReplay, DisablingSpansLeavesPhaseTimesIdentical) {
  JoinConfig with;
  ReplayedRun traced = RunJoin(QdrCluster(4), with);
  JoinConfig without;
  without.enable_spans = false;
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  spec.seed = 42;
  auto workload = GenerateWorkload(spec, 4);
  ASSERT_TRUE(workload.ok());
  without.network_radix_bits = 5;
  without.scale_up = 1024.0;
  auto plain = DistributedJoin(QdrCluster(4), without)
                   .Run(workload->inner, workload->outer);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->replay.spans, nullptr);
  // The recorder is passive: identical times with recording on and off.
  EXPECT_EQ(plain->times.histogram_seconds,
            traced.result.times.histogram_seconds);
  EXPECT_EQ(plain->times.network_partition_seconds,
            traced.result.times.network_partition_seconds);
  EXPECT_EQ(plain->times.local_partition_seconds,
            traced.result.times.local_partition_seconds);
  EXPECT_EQ(plain->times.build_probe_seconds,
            traced.result.times.build_probe_seconds);
}

TEST(SpanReplay, ExternalRecorderCollectsReplayAndExecutionLayers) {
  SpanRecorder recorder;
  JoinConfig config;
  config.span_recorder = &recorder;
  ReplayedRun run = RunJoin(QdrCluster(4), config);
  ASSERT_EQ(run.result.replay.spans.get(), &recorder);
  const SpanDataset ds = recorder.Snapshot();
  EXPECT_GT(ds.spans.size(), 0u);
  // The execution layer's verbs counts landed in the same dataset...
  ASSERT_FALSE(ds.devices.empty());
  uint64_t sends_posted = 0;
  for (const ExecDeviceCounts& d : ds.devices) {
    sends_posted += d.posted[static_cast<int>(WorkCompletion::Op::kSend)];
  }
  // ...and cover at least the exchange's shipped messages (collectives may
  // post additional SENDs on the same devices).
  EXPECT_GE(sends_posted, run.result.net.messages_sent);
  EXPECT_GT(sends_posted, 0u);
  const SpanInvariantReport inv = CheckSpanInvariants(ds);
  EXPECT_TRUE(inv.ok()) << FirstViolation(inv);
}

/// A recorder that also counts the fabric's OnFlowSegment calls.
class CountingRecorder : public SpanRecorder {
 public:
  using SpanRecorder::SpanRecorder;
  void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst, double t0,
                     double t1, double rate, RateConstraint bound,
                     uint32_t bound_host) override {
    ++calls;
    SpanRecorder::OnFlowSegment(flow_id, src, dst, t0, t1, rate, bound,
                                bound_host);
  }
  uint64_t calls = 0;
};

TEST(SpanReplay, EveryTelemetryCallStoresOneMaximalSegment) {
  SpanConfig roomy;
  roomy.max_bytes = 64 * 1024 * 1024;
  CountingRecorder recorder(roomy);
  JoinConfig config;
  config.span_recorder = &recorder;
  const ReplayedRun run = RunJoin(QdrCluster(4), config);
  const SpanDataset& ds = run.dataset;
  EXPECT_EQ(ds.segments_dropped, 0u);
  EXPECT_GT(recorder.calls, 0u);
  EXPECT_EQ(recorder.calls, ds.segments_recorded);
  EXPECT_EQ(ds.segments_recorded, ds.segments.size());
  std::map<uint64_t, const FlowSegment*> last_of_flow;
  for (size_t i = 0; i < ds.segments.size(); ++i) {
    const FlowSegment& g = ds.segments[i];
    if (i > 0) {
      const FlowSegment& p = ds.segments[i - 1];
      EXPECT_LT(std::tie(p.t0, p.src, p.dst), std::tie(g.t0, g.src, g.dst))
          << "segment " << i;
    }
    auto it = last_of_flow.find(g.flow);
    if (it != last_of_flow.end()) {
      const FlowSegment& p = *it->second;
      EXPECT_LE(p.t1, g.t0) << "flow " << g.flow;
      EXPECT_FALSE(p.t1 == g.t0 && p.rate == g.rate && p.bound == g.bound &&
                   p.bound_host == g.bound_host)
          << "flow " << g.flow << " split at " << g.t0 << " without a change";
    }
    last_of_flow[g.flow] = &g;
  }
}

}  // namespace
}  // namespace rdmajoin
