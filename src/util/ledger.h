#ifndef RDMAJOIN_UTIL_LEDGER_H_
#define RDMAJOIN_UTIL_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bench_json.h"
#include "util/statusor.h"

namespace rdmajoin {

/// The longitudinal perf ledger: one JSONL file (bench/ledger/ledger.jsonl)
/// accumulating a compact summary row per bench run per commit, appended by
/// `rdmajoin_explain --ledger-append` in CI. Unlike the per-run BENCH_*.json
/// artifacts (discarded after each gate), the ledger is committed history:
/// it renders trends and detects drift -- a slow creep that stays inside the
/// per-run gate's tolerance every time but compounds across commits.
inline constexpr int kLedgerSchemaVersion = 1;

/// One measured row of one bench run.
struct LedgerRow {
  std::string label;
  double seconds = 0;
};

/// Dominant binding constraint of one phase of a run, as reported by the
/// span recorder's forensics (timing/span_query.h). Stored by name
/// ("egress", "ingress", "msg_rate", ...) so the ledger layer stays below
/// the timing layer in the dependency DAG; the ledger only threads the
/// strings through and renders the flips.
struct LedgerPhaseConstraint {
  std::string phase;
  std::string bound;
};

/// One ledger line: the summary of one bench run at one commit. Everything
/// except `commit` is deterministic for a fixed (bench, scale, seed, code).
struct LedgerEntry {
  int schema_version = kLedgerSchemaVersion;
  std::string bench;
  /// Git commit id (or any build tag); "unknown" when not supplied.
  std::string commit = "unknown";
  double scale_up = 0;
  uint64_t seed = 0;
  /// Sum of the measured rows' virtual seconds.
  double total_seconds = 0;
  std::vector<LedgerRow> rows;
  /// Optional per-phase dominant binding constraints (filled by callers that
  /// have a span dataset, e.g. `rdmajoin_explain --ledger-append --spans=`).
  /// Serialized only when non-empty, so entries without forensics -- and the
  /// committed ledger history -- keep their exact bytes.
  std::vector<LedgerPhaseConstraint> phase_constraints;
};

/// Summarizes a parsed bench document into a ledger entry.
LedgerEntry LedgerEntryFromBench(const BenchJsonDocument& bench,
                                 const std::string& commit);

/// One deterministic JSON line (no trailing newline).
std::string LedgerEntryToJson(const LedgerEntry& entry);

/// Parses one ledger line. Rejects unknown schema versions and entries
/// without a bench name.
StatusOr<LedgerEntry> ParseLedgerEntry(const std::string& line);

/// Reads a JSONL ledger file (blank lines skipped). A missing file is an
/// empty ledger, not an error -- the first append creates it.
StatusOr<std::vector<LedgerEntry>> ReadLedgerFile(const std::string& path);

/// Appends one entry (creating the file and parent use is the caller's
/// concern -- the CI step runs from the repo root where bench/ledger/
/// exists).
Status AppendLedgerEntry(const std::string& path, const LedgerEntry& entry);

/// One (bench, label) series' drift verdict: the latest measurement against
/// the median of all prior ones.
struct LedgerDrift {
  std::string bench;
  std::string label;
  size_t points = 0;      ///< series length including the latest
  double median = 0;      ///< median of the prior points
  double latest = 0;
  double delta = 0;       ///< latest - median
  bool drift = false;     ///< ExceedsMargin(median, latest)
};

/// Drift detection over a ledger: per (bench, label) series in first-seen
/// order, compares the latest point to the median of the prior points with
/// the bench gate's margin rule (ExceedsMargin, two-sided). Series with
/// fewer than 3 entries are reported with drift=false (not enough history).
std::vector<LedgerDrift> DetectLedgerDrift(const std::vector<LedgerEntry>& ledger,
                                           const BenchDiffOptions& options = {});

/// Trend rendering: per bench and label, the series' history as an ASCII
/// sparkline (min..max normalized) with first/median/latest values and the
/// drift verdict. `bench_filter` non-empty limits output to one bench.
std::string FormatLedger(const std::vector<LedgerEntry>& ledger,
                         const std::string& bench_filter = "",
                         const BenchDiffOptions& options = {});

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_LEDGER_H_
