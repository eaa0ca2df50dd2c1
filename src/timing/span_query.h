#ifndef RDMAJOIN_TIMING_SPAN_QUERY_H_
#define RDMAJOIN_TIMING_SPAN_QUERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "timing/span_trace.h"

namespace rdmajoin {

/// Query engine over a SpanDataset (timing/span_trace.h): top-k selection,
/// per-stage latency distributions, concurrent-flow reconstruction and the
/// causal invariants that cross-validate the spans against the PR 3
/// attribution. All queries are read-only and deterministic (ties broken by
/// span id).

/// The `k` complete spans with the largest end-to-end duration, descending
/// (ties by ascending id).
std::vector<WrSpan> TopSpansByDuration(const SpanDataset& dataset, size_t k);

/// The `k` spans with the largest time in the interval ending at `stage`
/// (e.g. kCreditAcquired selects the worst credit waits), descending.
/// Spans missing either boundary of the interval are skipped.
std::vector<WrSpan> TopSpansByStage(const SpanDataset& dataset, SpanStage stage,
                                    size_t k);

/// Latency distribution of one stage interval across all spans that have it.
/// Percentiles are nearest-rank over the recorded population.
struct StageStats {
  SpanStage stage = SpanStage::kPosted;
  uint64_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
  double total = 0;
};
StageStats ComputeStageStats(const SpanDataset& dataset, SpanStage stage);

/// Rate segments of *other* flows that overlap `span`'s fabric interval
/// [fabric-admitted, delivered] and share one of its ports (the span's
/// source egress or destination ingress) -- i.e. who the span was sharing
/// its bottleneck with, at what rate, during each interval. Empty when the
/// span has no fabric interval or no telemetry was recorded.
std::vector<FlowSegment> ConcurrentFlowSegments(const SpanDataset& dataset,
                                                const WrSpan& span);

/// Summed credit-wait stage over the spans of one thread.
double CreditWaitSeconds(const SpanDataset& dataset, uint32_t machine,
                         uint32_t thread);

/// Per-machine credit-wait of the machine's *lead* thread -- the thread that
/// finishes the network pass last, first-on-tie in (machine, thread) order;
/// exactly the thread whose credit stalls PR 3 attribution reports as the
/// machine's buffer_stall_seconds. Uses the dataset's thread marks; machines
/// without marks report 0.
std::vector<double> LeadThreadCreditWaitByMachine(const SpanDataset& dataset,
                                                  uint32_t num_machines);

/// Result of CheckSpanInvariants.
struct SpanInvariantReport {
  std::vector<std::string> violations;
  uint64_t spans_checked = 0;
  bool ok() const { return violations.empty(); }
};

/// Verifies the causal invariants of a post-run dataset:
///  1. every surviving span is complete (posted, credit, admitted, delivered,
///     completed all present -- one delivery and one completion per WR) with
///     non-negative, causally ordered stages;
///  2. the four stage intervals sum to the span duration (1e-9);
///  3. per-thread summed credit waits equal the replay's thread marks to
///     1e-9 (skipped when spans were dropped -- the sum would be partial);
///  4. per-flow segment byte conservation: integrating a flow's rate
///     segments reproduces its span's wire bytes (skipped when segments
///     were dropped or no telemetry was recorded);
///  5. execution-layer sanity when device counts are present: per opcode,
///     completions delivered <= posted and polled <= delivered.
SpanInvariantReport CheckSpanInvariants(const SpanDataset& dataset);

/// Human-readable report: recorder totals, per-stage percentiles, top-k by
/// duration and by credit-wait (each span annotated with the binding
/// constraint that dominated its fabric transit), and the invariant verdict.
std::string FormatSpanReport(const SpanDataset& dataset, size_t top_k = 5);

// ---------------------------------------------------------------------------
// Bottleneck forensics: binding-constraint attribution (schema v2 datasets).
// ---------------------------------------------------------------------------

/// Seconds spent under each binding constraint, indexed by RateConstraint
/// (kCreditStarved is filled by the span-level report, never by segments).
struct ConstraintBreakdown {
  double seconds[5] = {0, 0, 0, 0, 0};
  double labeled_total() const {
    return seconds[1] + seconds[2] + seconds[3] + seconds[4];
  }
  /// The constraint with the most seconds (ties to the lower enum value,
  /// i.e. egress before ingress before message-rate); kNone when nothing was
  /// labeled.
  RateConstraint dominant() const;
};

/// Time-weighted constraint attribution of one flow's rate segments.
ConstraintBreakdown FlowConstraintBreakdown(const SpanDataset& dataset,
                                            uint64_t flow);
/// Same, aggregated over every segment of the dataset (flow-seconds).
ConstraintBreakdown DatasetConstraintBreakdown(const SpanDataset& dataset);

struct CongestionOptions {
  /// Buckets of each per-host congestion timeline over [t_begin, t_end].
  size_t timeline_buckets = 48;
  /// Minimum distinct ingress-bound senders converging on one receiver for
  /// an interval to count as incast.
  uint32_t incast_min_senders = 3;
};

/// Per-host congestion timeline: flow-seconds per bucket whose binding
/// constraint was owned by this host, split by constraint kind. A bucket
/// where `ingress_bound` is large says "flows were queued behind this host's
/// ingress port here"; `egress_bound` says the host's own egress port was the
/// bottleneck; `msg_rate_bound` counts flows pinned below the fair share by
/// the per-host message-rate ceiling.
struct HostCongestionTimeline {
  uint32_t host = 0;
  std::vector<double> egress_bound;
  std::vector<double> ingress_bound;
  std::vector<double> msg_rate_bound;
};

/// One incast episode: >= `incast_min_senders` distinct sources
/// simultaneously ingress-bound at receiver `dst`.
struct IncastEvent {
  uint32_t dst = 0;
  double t0 = 0;
  double t1 = 0;
  /// Peak number of distinct simultaneously ingress-bound senders.
  uint32_t peak_senders = 0;
  /// Bytes the ingress-bound flows delivered into `dst` during the episode.
  double bytes = 0;
};

/// Congestion analysis over a labeled dataset: per-host constraint
/// timelines, incast episodes (per receiver, in time order) and the
/// dataset-wide constraint totals. Datasets without labels (schema v1)
/// produce empty timelines and no incasts.
struct CongestionReport {
  double t_begin = 0;
  double t_end = 0;
  double bucket_seconds = 0;
  std::vector<HostCongestionTimeline> hosts;
  std::vector<IncastEvent> incasts;
  ConstraintBreakdown totals;
};
CongestionReport ComputeCongestion(const SpanDataset& dataset,
                                   const CongestionOptions& options =
                                       CongestionOptions());

/// One line of the ranked "why is this flow slow" report: a top-duration
/// span, the constraint attribution of its fabric transit, and the verdict
/// -- the dominant transit constraint, or kCreditStarved when the span spent
/// longer waiting for a double-buffering credit than moving bytes.
struct FlowSlowEntry {
  WrSpan span;
  ConstraintBreakdown transit;
  double credit_wait_seconds = 0;
  double transit_seconds = 0;
  RateConstraint verdict = RateConstraint::kNone;
};
/// The `k` slowest complete spans, each with its constraint verdict.
std::vector<FlowSlowEntry> RankSlowFlows(const SpanDataset& dataset, size_t k);

/// Human-readable congestion report: totals, per-host timelines rendered as
/// constraint sparklines, incast episodes, and the ranked slow-flow list.
std::string FormatCongestionReport(const SpanDataset& dataset,
                                   const CongestionReport& report,
                                   size_t top_k = 5);
/// Deterministic JSON document of a congestion report (schema version 1).
std::string CongestionReportToJson(const CongestionReport& report);

/// Everything CheckConstraintInvariants needs to reconstruct the fair
/// shares: the fabric dimensions the replay ran with, plus (for runs under
/// fault injection) the per-host capacity-scale schedule. The scale
/// callbacks may be null, meaning 1.0 everywhere.
struct ConstraintCheckContext {
  uint32_t num_hosts = 0;
  /// Effective per-host capacities (egress after the congestion term, i.e.
  /// FabricConfig::EffectiveEgress()).
  double egress_bytes_per_sec = 0;
  double ingress_bytes_per_sec = 0;
  /// Per-host message-rate ceiling; <= 0 disables cap checks.
  double message_rate_per_host = 0;
  /// Capacity scale of `host` at time `t` (fault injection); null => 1.0.
  std::function<double(uint32_t host, double t)> egress_scale;
  std::function<double(uint32_t host, double t)> ingress_scale;
};
/// Builds a check context from the fabric configuration a replay used.
ConstraintCheckContext ConstraintCheckContextFromFabric(const FabricConfig& fc);

/// Verifies the binding-constraint labels of every recorded segment:
///  1. labeling: every segment moving bytes (rate > 0) carries a constraint
///     label, and the constraining host is the segment's src (egress,
///     message-rate) or dst (ingress);
///  2. tightness: on every elementary interval between segment boundaries,
///     the segment's rate is the minimum of the equal egress and ingress
///     shares (recomputed from the reconstructed per-host active counts)
///     and the message-rate cap (wire_bytes * message_rate via the flow's
///     span), and its label is the one ClassifyEqualShare gives them (a
///     flow whose span was evicted has no known cap, so only its labeled
///     share is compared);
///  3. consistency: a flow's rate never exceeds any reconstructable share of
///     its endpoints.
/// Tightness checks are skipped when segments were dropped (the
/// reconstruction would be partial) and on intervals where any host's
/// capacity scale is 0 (stalled flows occupy fair-share denominators without
/// emitting segments).
SpanInvariantReport CheckConstraintInvariants(const SpanDataset& dataset,
                                              const ConstraintCheckContext& ctx);

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_SPAN_QUERY_H_
