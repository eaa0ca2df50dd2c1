#ifndef RDMAJOIN_TIMING_RUN_DIFF_H_
#define RDMAJOIN_TIMING_RUN_DIFF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "timing/attribution.h"
#include "timing/span_trace.h"
#include "util/bench_json.h"
#include "util/json.h"
#include "util/statusor.h"

namespace rdmajoin {

/// Differential run forensics: aligns two runs of the same bench and drills
/// "why is B slower than A" top-down -- makespan -> phase -> critical machine
/// -> attribution bucket -> stage percentiles -> the individual diverging
/// flows. The bench JSON is the spine (always present); span datasets and
/// metrics snapshots deepen the drill when supplied. The verdict is
/// deterministic JSON plus a human narrative like
///   "network-partition +12.0% on machine 2, 93% of it fault_recovery".

/// Everything one run left behind. Only `bench` is required.
struct RunArtifacts {
  BenchJsonDocument bench;
  std::optional<SpanDataset> spans;
  /// Parsed MetricsRegistry::SnapshotJson document.
  std::optional<JsonValue> metrics;
};

/// One attribution bucket's movement inside one phase.
struct BucketDelta {
  std::string bucket;  ///< "compute", "network", "buffer_stall", ...
  double a_seconds = 0;
  double b_seconds = 0;
  double delta_seconds = 0;  ///< b - a
};

/// One phase's movement inside one row, with the critical machine's
/// attribution drill-down.
struct PhaseDelta {
  std::string phase;  ///< JoinPhaseName, e.g. "network-partition"
  double a_seconds = 0;
  double b_seconds = 0;
  double delta_seconds = 0;
  /// The machine that defined the barrier in each run (from the bench JSON's
  /// attribution.critical_path).
  uint32_t a_machine = 0;
  uint32_t b_machine = 0;
  /// Bucket-by-bucket movement of the critical machine's breakdown, in
  /// schema order. Empty when either row lacks attribution.
  std::vector<BucketDelta> buckets;
  /// The bucket with the largest |delta| and its share of |phase delta|
  /// (0 when the phase did not move or no buckets are present).
  std::string dominant_bucket;
  double dominant_bucket_share = 0;
};

/// One bench row's comparison: the regression gate's verdict, plus the
/// phase drill-down when the row moved beyond the margins.
struct RowDelta {
  BenchDiffEntry row;
  std::vector<PhaseDelta> phases;
  /// The phase with the largest |delta|; empty when nothing moved.
  std::string dominant_phase;
  /// One-line explanation of this row's movement.
  std::string narrative;
};

/// Stage-latency distribution movement across the two span datasets.
struct StageDelta {
  std::string stage;  ///< SpanStageName of the interval's end
  uint64_t a_count = 0;
  uint64_t b_count = 0;
  double a_p50 = 0, b_p50 = 0;
  double a_p99 = 0, b_p99 = 0;
  double a_total = 0, b_total = 0;
  double delta_total = 0;
};

/// One work request that got slower/faster between runs (spans matched by
/// id -- identical-seed runs replay the same send sequence).
struct FlowDelta {
  uint64_t id = 0;
  uint32_t machine = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  double a_duration = 0;
  double b_duration = 0;
  double delta_duration = 0;
};

/// One counter/gauge that moved between metrics snapshots.
struct MetricDelta {
  std::string name;
  double a_value = 0;
  double b_value = 0;
  double delta = 0;
};

struct RunDiffReport {
  std::string bench;
  double scale_up = 0;
  uint64_t seed_a = 0;
  uint64_t seed_b = 0;
  double a_total_seconds = 0;  ///< summed seconds rows both runs measured
  double b_total_seconds = 0;
  double delta_total_seconds = 0;
  /// The regression gate's row comparison (DiffBenchDocuments).
  BenchDiffResult diff;
  /// One entry per diff entry, in the same order.
  std::vector<RowDelta> rows;
  /// True iff no row diverges (HasDivergence), every row's parsed JSON is
  /// equal (same rows, same order), the span datasets serialize identically
  /// (when both present) and the metrics documents are equal (when both
  /// present), with no artifact present for one run only. Equal rows never
  /// diverge, so this does not depend on the tolerances -- it is the
  /// determinism cross-check CI asserts on a double run.
  bool zero_divergence = true;
  /// Deepening drills, present when both runs supplied the artifact.
  std::vector<StageDelta> stages;   ///< all five stages
  std::vector<FlowDelta> flows;     ///< top-k by |delta|, ties by id
  std::vector<MetricDelta> metrics; ///< top-k by |delta|, ties by name
  uint64_t metrics_compared = 0;
  uint64_t metrics_diverged = 0;
  /// Top-line verdict sentence (the dominant row's narrative, or the
  /// zero-divergence / within-tolerance statement).
  std::string verdict;

  /// Any row regressed, improved, went missing or was added.
  bool HasDivergence() const {
    return diff.regressions + diff.improvements + diff.missing + diff.added > 0;
  }
};

/// Diffs two runs: the bench rows through DiffBenchDocuments (which fails
/// with InvalidArgument when the documents are not comparable; seeds MAY
/// differ, the report records both), and the span datasets and metrics
/// snapshots when supplied. `top_k` bounds the flow and metric lists.
StatusOr<RunDiffReport> DiffRuns(const RunArtifacts& a, const RunArtifacts& b,
                                 const BenchDiffOptions& options = {},
                                 size_t top_k = 10);

/// Reads the artifacts of one run from disk: required bench JSON, optional
/// span dataset and metrics snapshot (empty path = absent).
StatusOr<RunArtifacts> LoadRunArtifacts(const std::string& bench_path,
                                        const std::string& spans_path = "",
                                        const std::string& metrics_path = "");

/// Human-readable forensics report: verdict, the gate's row table
/// (BenchDiffResult::Summary), per-row drill-downs, stage and flow tables.
/// `report_improvements` also drills rows that got faster and appends the
/// summary's speedups section (they are always counted in the summary).
std::string FormatRunDiff(const RunDiffReport& report,
                          bool report_improvements = false);

/// Deterministic JSON export (schema version 1).
std::string RunDiffToJson(const RunDiffReport& report);

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_RUN_DIFF_H_
