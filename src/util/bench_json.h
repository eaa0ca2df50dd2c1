#ifndef RDMAJOIN_UTIL_BENCH_JSON_H_
#define RDMAJOIN_UTIL_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/statusor.h"

namespace rdmajoin {

/// The machine-readable bench result schema (`BENCH_<name>.json`) that every
/// fig/abl/ext harness emits through bench::BenchReporter, and that
/// tools/rdmajoin_analyze renders and diffs. Version history:
///   1 -- initial: bench/scale_up/seed header plus rows of
///        {label, config, measured/paper/model seconds, phases, attribution,
///         model residuals, protocol violations}. Join-run rows also carry
///        a `counters` object, the replay's exact work counters (events,
///        fabric_steps, link_updates, reshared_links, telemetry_callbacks),
///        so a byte-identical baseline gates them; older documents lack it.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// One data point of a bench run (one table row / figure point).
struct BenchJsonRow {
  std::string label;
  bool ok = false;
  bool verified = false;
  std::string error;
  /// Total virtual seconds; NaN when the row did not produce a measurement.
  double measured_seconds = 0;
  bool has_measured = false;
  /// A measurement in another unit (a rate, a ratio or an exact count),
  /// named by `unit`; host-time benches emit these next to their seconds.
  double measured_value = 0;
  bool has_value = false;
  std::string unit;
  /// The paper's reference value for this point, when the figure states one.
  double paper_seconds = 0;
  bool has_paper = false;
  /// Closed-form model prediction and residual (fig09-style rows).
  double model_seconds = 0;
  bool has_model = false;
  double residual_seconds = 0;
  uint64_t protocol_violations = 0;
  /// The row's full JSON object, for consumers that want phases,
  /// attribution, or config details beyond the typed fields above.
  JsonValue raw;
};

/// A parsed BENCH_*.json document.
struct BenchJsonDocument {
  int schema_version = 0;
  std::string bench;
  double scale_up = 0;
  uint64_t seed = 0;
  std::vector<BenchJsonRow> rows;

  const BenchJsonRow* FindRow(const std::string& label) const;
};

/// Whether `unit` names an exact count (one closed list: "assignments",
/// "messages", "acquisitions", "chain_steps", "events"). --diff compares
/// such rows exactly; rates and ratios ("x", "events_per_sec", ...) stay
/// ungated.
bool IsCountUnit(const std::string& unit);

/// Parses and structurally validates a bench JSON document. Rejects unknown
/// schema versions, rows without labels or with a label an earlier row has,
/// a measured_seconds, paper_seconds or model.total_seconds that is neither
/// a non-negative number nor null (no measurement), a measured_value that is
/// neither a number nor null, a count row (IsCountUnit) whose measured_value
/// is not a non-negative integer, and `counters` with more fabric_steps than
/// events. Row errors name the row and the field.
StatusOr<BenchJsonDocument> ParseBenchJson(const std::string& json);

/// Convenience: read + parse a file.
StatusOr<BenchJsonDocument> ReadBenchJsonFile(const std::string& path);

/// Regression-gate tolerances. A value moves when it differs from the old
/// one by more than BOTH margins -- the relative guard absorbs platform/FP
/// noise proportional to the runtime, the absolute guard keeps micro-rows
/// (milliseconds) from tripping on rounding. Zero both to demand exact
/// equality.
struct BenchDiffOptions {
  double relative_tolerance = 0.05;
  double absolute_tolerance_seconds = 0.02;
};

/// The one margin rule of the gate, the run differ and the ledger drift:
/// |new_value - old_value| > max(relative * |old_value|, absolute).
bool ExceedsMargin(double old_value, double new_value,
                   const BenchDiffOptions& options);

/// One row's comparison: a seconds row against the tolerances, or a count
/// row (non-empty `count_unit`) exactly, where any change is a regression.
struct BenchDiffEntry {
  std::string label;
  double old_seconds = 0;
  double new_seconds = 0;
  double delta_seconds = 0;   // new - old
  double ratio = 0;           // new / old (0 when old == 0)
  std::string count_unit;
  uint64_t old_count = 0;
  uint64_t new_count = 0;
  bool regression = false;
  bool improvement = false;   // faster by more than the same margins
  /// A compared baseline row that is absent, failed or unmeasured in the
  /// current document.
  bool missing_in_new = false;
  /// A current row the gate would compare whose baseline row is absent,
  /// failed or unmeasured; only the new_* fields are set.
  bool added_in_new = false;
};

struct BenchDiffResult {
  /// Baseline rows in baseline order, then added rows in current order.
  std::vector<BenchDiffEntry> entries;
  size_t regressions = 0;
  size_t improvements = 0;
  size_t missing = 0;
  size_t added = 0;
  /// The regression gate's verdict: a row slowed down, a count changed, or
  /// a baseline row went missing. Improvements and added rows pass.
  bool HasRegressions() const { return regressions > 0 || missing > 0; }
  /// Human-readable comparison table plus verdict line. With
  /// `report_improvements` the summary appends a dedicated speedups section
  /// (per-row gain and the total saved), so intentional wins are visible in
  /// CI logs -- purely informational, the gate verdict is unchanged.
  std::string Summary(bool report_improvements = false) const;
};

/// Diffs two bench documents row by row (matched on label): every ok row
/// with measured_seconds against the tolerances, and every ok count row
/// exactly. Fails with InvalidArgument when the documents are not
/// comparable: different bench names, schema versions or scale factors.
/// Seeds may differ; rdmajoin_analyze --diff requires them to match.
StatusOr<BenchDiffResult> DiffBenchDocuments(const BenchJsonDocument& baseline,
                                             const BenchJsonDocument& current,
                                             const BenchDiffOptions& options);

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_BENCH_JSON_H_
