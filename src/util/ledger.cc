#include "util/ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "util/json.h"

namespace rdmajoin {

namespace {

/// A series needs this many points (history plus the latest) to drift.
constexpr size_t kMinDriftPoints = 3;

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// (bench, label) -> chronological measurements, series in first-seen order.
struct Series {
  std::string bench;
  std::string label;
  std::vector<double> values;
};

std::vector<Series> CollectSeries(const std::vector<LedgerEntry>& ledger,
                                  const std::string& bench_filter) {
  std::vector<Series> series;
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (const LedgerEntry& entry : ledger) {
    if (!bench_filter.empty() && entry.bench != bench_filter) continue;
    for (const LedgerRow& row : entry.rows) {
      const auto key = std::make_pair(entry.bench, row.label);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, series.size()).first;
        series.push_back(Series{entry.bench, row.label, {}});
      }
      series[it->second].values.push_back(row.seconds);
    }
  }
  return series;
}

/// (bench, phase) -> chronological dominant-constraint names, first-seen
/// order. Entries without forensics simply contribute no point, so series
/// can be shorter than the timing series above.
struct ConstraintSeries {
  std::string bench;
  std::string phase;
  std::vector<std::string> bounds;
};

std::vector<ConstraintSeries> CollectConstraintSeries(
    const std::vector<LedgerEntry>& ledger, const std::string& bench_filter) {
  std::vector<ConstraintSeries> series;
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (const LedgerEntry& entry : ledger) {
    if (!bench_filter.empty() && entry.bench != bench_filter) continue;
    for (const LedgerPhaseConstraint& pc : entry.phase_constraints) {
      const auto key = std::make_pair(entry.bench, pc.phase);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, series.size()).first;
        series.push_back(ConstraintSeries{entry.bench, pc.phase, {}});
      }
      series[it->second].bounds.push_back(pc.bound);
    }
  }
  return series;
}

/// One letter per ledger point: e(gress) i(ngress) m(sg_rate) c(redit),
/// '-' for none, '?' for anything unrecognized. A compute- vs ingress-bound
/// flip across commits reads as "eeeii" at a glance.
char ConstraintCode(const std::string& bound) {
  if (bound == "egress") return 'e';
  if (bound == "ingress") return 'i';
  if (bound == "msg_rate") return 'm';
  if (bound == "credit") return 'c';
  if (bound == "none") return '-';
  return '?';
}

/// 8-level ASCII sparkline of the series, min..max normalized.
std::string Sparkline(const std::vector<double>& values) {
  static const char kLevels[] = "_.-:=+*#";
  double lo = values.empty() ? 0 : values[0];
  double hi = lo;
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    const double frac = hi > lo ? (v - lo) / (hi - lo) : 0;
    const int level = std::min(7, static_cast<int>(frac * 8));
    out.push_back(kLevels[level]);
  }
  return out;
}

}  // namespace

LedgerEntry LedgerEntryFromBench(const BenchJsonDocument& bench,
                                 const std::string& commit) {
  LedgerEntry entry;
  entry.bench = bench.bench;
  entry.commit = commit.empty() ? "unknown" : commit;
  entry.scale_up = bench.scale_up;
  entry.seed = bench.seed;
  for (const BenchJsonRow& row : bench.rows) {
    if (!row.ok || !row.has_measured) continue;
    entry.rows.push_back(LedgerRow{row.label, row.measured_seconds});
    entry.total_seconds += row.measured_seconds;
  }
  return entry;
}

std::string LedgerEntryToJson(const LedgerEntry& entry) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("schema_version").Int(entry.schema_version);
  w.Key("bench").String(entry.bench);
  w.Key("commit").String(entry.commit);
  w.Key("scale_up").Number(entry.scale_up);
  w.Key("seed").Number(static_cast<double>(entry.seed));
  w.Key("total_seconds").Number(entry.total_seconds);
  w.Key("rows").BeginArray();
  for (const LedgerRow& row : entry.rows) {
    w.BeginObject().Key("label").String(row.label);
    w.Key("seconds").Number(row.seconds).EndObject();
  }
  w.EndArray();
  if (!entry.phase_constraints.empty()) {
    w.Key("phase_constraints").BeginArray();
    for (const LedgerPhaseConstraint& pc : entry.phase_constraints) {
      w.BeginObject().Key("phase").String(pc.phase);
      w.Key("bound").String(pc.bound).EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return out;
}

StatusOr<LedgerEntry> ParseLedgerEntry(const std::string& line) {
  RDMAJOIN_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("ledger entry: not a JSON object");
  }
  LedgerEntry entry;
  entry.schema_version = 0;
  RDMAJOIN_RETURN_IF_ERROR(root.Get("schema_version", &entry.schema_version));
  if (entry.schema_version != kLedgerSchemaVersion) {
    return Status::InvalidArgument(
        "ledger entry: unsupported schema_version " +
        std::to_string(entry.schema_version) + " (expected " +
        std::to_string(kLedgerSchemaVersion) + ")");
  }
  RDMAJOIN_RETURN_IF_ERROR(root.Get("bench", &entry.bench));
  if (entry.bench.empty()) {
    return Status::InvalidArgument("ledger entry: missing bench name");
  }
  RDMAJOIN_RETURN_IF_ERROR(root.Get("commit", &entry.commit, "scale_up",
                                    &entry.scale_up, "seed", &entry.seed,
                                    "total_seconds", &entry.total_seconds));
  if (const JsonValue* rows = root.Find("rows"); rows != nullptr && rows->is_array()) {
    for (const JsonValue& row : rows->array_items) {
      LedgerRow lr;
      RDMAJOIN_RETURN_IF_ERROR(
          row.Get("label", &lr.label, "seconds", &lr.seconds));
      if (lr.label.empty()) {
        return Status::InvalidArgument("ledger entry: row without a label");
      }
      entry.rows.push_back(std::move(lr));
    }
  }
  if (const JsonValue* pcs = root.Find("phase_constraints");
      pcs != nullptr && pcs->is_array()) {
    for (const JsonValue& pc : pcs->array_items) {
      LedgerPhaseConstraint c;
      RDMAJOIN_RETURN_IF_ERROR(pc.Get("phase", &c.phase, "bound", &c.bound));
      if (c.phase.empty() || c.bound.empty()) {
        return Status::InvalidArgument(
            "ledger entry: phase_constraints element without phase or bound");
      }
      entry.phase_constraints.push_back(std::move(c));
    }
  }
  return entry;
}

StatusOr<std::vector<LedgerEntry>> ReadLedgerFile(const std::string& path) {
  std::vector<LedgerEntry> ledger;
  std::ifstream in(path);
  if (!in) return ledger;  // Missing file == empty ledger.
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto entry = ParseLedgerEntry(line);
    if (!entry.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": " + entry.status().message());
    }
    ledger.push_back(std::move(*entry));
  }
  return ledger;
}

Status AppendLedgerEntry(const std::string& path, const LedgerEntry& entry) {
  std::ofstream out(path, std::ios::app);
  if (!out) return Status::NotFound("cannot open " + path + " for append");
  out << LedgerEntryToJson(entry) << "\n";
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

std::vector<LedgerDrift> DetectLedgerDrift(const std::vector<LedgerEntry>& ledger,
                                           const BenchDiffOptions& options) {
  std::vector<LedgerDrift> drifts;
  for (const Series& s : CollectSeries(ledger, "")) {
    LedgerDrift d;
    d.bench = s.bench;
    d.label = s.label;
    d.points = s.values.size();
    d.latest = s.values.empty() ? 0 : s.values.back();
    if (s.values.size() >= 2) {
      std::vector<double> prior(s.values.begin(), s.values.end() - 1);
      d.median = MedianOf(prior);
      d.delta = d.latest - d.median;
      d.drift = s.values.size() >= kMinDriftPoints &&
                ExceedsMargin(d.median, d.latest, options);
    }
    drifts.push_back(std::move(d));
  }
  return drifts;
}

std::string FormatLedger(const std::vector<LedgerEntry>& ledger,
                         const std::string& bench_filter,
                         const BenchDiffOptions& options) {
  std::string out;
  char buf[256];
  const std::vector<Series> series = CollectSeries(ledger, bench_filter);
  const std::vector<ConstraintSeries> constraints =
      CollectConstraintSeries(ledger, bench_filter);
  std::vector<LedgerDrift> drifts = DetectLedgerDrift(ledger, options);
  std::snprintf(buf, sizeof(buf), "perf ledger: %zu entr%s, %zu series\n",
                ledger.size(), ledger.size() == 1 ? "y" : "ies", series.size());
  out += buf;
  const auto emit_constraints = [&](const std::string& b) {
    for (const ConstraintSeries& c : constraints) {
      if (c.bench != b) continue;
      std::string codes;
      for (const std::string& bound : c.bounds)
        codes.push_back(ConstraintCode(bound));
      std::snprintf(buf, sizeof(buf), "  bound:%-22s %-24s n=%-3zu latest %s\n",
                    c.phase.c_str(), codes.c_str(), c.bounds.size(),
                    c.bounds.empty() ? "none" : c.bounds.back().c_str());
      out += buf;
    }
  };
  std::string bench;
  for (const Series& s : series) {
    if (s.bench != bench) {
      if (!bench.empty()) emit_constraints(bench);
      bench = s.bench;
      out += bench + ":\n";
    }
    const LedgerDrift* drift = nullptr;
    for (const LedgerDrift& d : drifts) {
      if (d.bench == s.bench && d.label == s.label) {
        drift = &d;
        break;
      }
    }
    double lo = s.values.empty() ? 0 : s.values[0];
    double hi = lo;
    for (double v : s.values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    std::snprintf(buf, sizeof(buf),
                  "  %-28s %-24s n=%-3zu min %.6f max %.6f latest %.6f",
                  s.label.c_str(), Sparkline(s.values).c_str(), s.values.size(),
                  lo, hi, s.values.empty() ? 0.0 : s.values.back());
    out += buf;
    if (drift != nullptr && drift->drift) {
      std::snprintf(buf, sizeof(buf), "  DRIFT %+.6f s vs median %.6f",
                    drift->delta, drift->median);
      out += buf;
    }
    out += "\n";
  }
  if (!bench.empty()) emit_constraints(bench);
  return out;
}

}  // namespace rdmajoin
