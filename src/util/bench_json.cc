#include "util/bench_json.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "util/file.h"

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

Status RowError(const std::string& label, const std::string& what) {
  std::string msg = "bench JSON: row \"";
  msg += JsonEscape(label);
  msg += "\": ";
  msg += what;
  return Status::InvalidArgument(std::move(msg));
}

/// Reads the seconds field `key` of `obj`, named `path` + `key` in errors,
/// into `*out`. Absent and null (a row without a measurement) leave `*has`
/// false; anything but a non-negative number is an error.
Status ReadSeconds(const JsonValue& obj, const std::string& key,
                   const std::string& label, double* out, bool* has,
                   const std::string& path = "") {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->is_null()) return Status::OK();
  if (!v->is_number()) return RowError(label, path + key + " is not a number");
  if (!(v->number_value >= 0)) {
    return RowError(label,
                    path + key + " " + JsonNumber(v->number_value) + " is negative");
  }
  *out = v->number_value;
  *has = true;
  return Status::OK();
}

bool IsCountRow(const BenchJsonRow& row) {
  return row.has_value && IsCountUnit(row.unit);
}

/// Whether the gate compares `row`: an ok count row or an ok measured row.
bool IsCompared(const BenchJsonRow& row) {
  return row.ok && (IsCountRow(row) || row.has_measured);
}

/// Whether `now` holds a measurement comparable to compared row `base`.
bool Matches(const BenchJsonRow& base, const BenchJsonRow* now) {
  if (now == nullptr || !now->ok) return false;
  return IsCountRow(base) ? now->has_value && now->unit == base.unit
                          : now->has_measured;
}

/// One side of an entry: "   112458 messages" or "    1.5000 s".
std::string EntryValue(const BenchDiffEntry& e, bool old_side) {
  char buf[96];
  if (e.count_unit.empty()) {
    std::snprintf(buf, sizeof(buf), "%10.4f s",
                  old_side ? e.old_seconds : e.new_seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%12llu %s",
                  static_cast<unsigned long long>(old_side ? e.old_count
                                                           : e.new_count),
                  e.count_unit.c_str());
  }
  return buf;
}

/// Largest integer a double holds exactly; a count beyond it is not exact.
constexpr double kMaxExactCount = 9007199254740992.0;  // 2^53

}  // namespace

bool IsCountUnit(const std::string& unit) {
  return unit == "assignments" || unit == "messages" || unit == "acquisitions" ||
         unit == "chain_steps" || unit == "events";
}

const BenchJsonRow* BenchJsonDocument::FindRow(const std::string& label) const {
  for (const BenchJsonRow& row : rows) {
    if (row.label == label) return &row;
  }
  return nullptr;
}

StatusOr<BenchJsonDocument> ParseBenchJson(const std::string& json) {
  RDMAJOIN_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("bench JSON: top level is not an object");
  }
  BenchJsonDocument doc;
  RDMAJOIN_RETURN_IF_ERROR(root.Get("schema_version", &doc.schema_version));
  if (doc.schema_version != kBenchJsonSchemaVersion) {
    return Status::InvalidArgument(
        "bench JSON: unsupported schema_version " +
        std::to_string(doc.schema_version) + " (expected " +
        std::to_string(kBenchJsonSchemaVersion) + ")");
  }
  RDMAJOIN_RETURN_IF_ERROR(root.Get("bench", &doc.bench));
  if (doc.bench.empty()) {
    return Status::InvalidArgument("bench JSON: missing 'bench' name");
  }
  RDMAJOIN_RETURN_IF_ERROR(
      root.Get("scale_up", &doc.scale_up, "seed", &doc.seed));
  const JsonValue* rows = root.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("bench JSON: missing 'rows' array");
  }
  for (const JsonValue& item : rows->array_items) {
    if (!item.is_object()) {
      return Status::InvalidArgument("bench JSON: row is not an object");
    }
    BenchJsonRow row;
    RDMAJOIN_RETURN_IF_ERROR(item.Get(
        "label", &row.label, "ok", &row.ok, "verified", &row.verified, "error",
        &row.error, "protocol_violations", &row.protocol_violations));
    if (row.label.empty()) {
      return Status::InvalidArgument("bench JSON: row without a label");
    }
    // --diff matches rows on their label: a second row of the same label
    // would never be compared.
    if (doc.FindRow(row.label) != nullptr) {
      return RowError(row.label, "duplicate label");
    }
    RDMAJOIN_RETURN_IF_ERROR(ReadSeconds(item, "measured_seconds", row.label,
                                         &row.measured_seconds, &row.has_measured));
    RDMAJOIN_RETURN_IF_ERROR(ReadSeconds(item, "paper_seconds", row.label,
                                         &row.paper_seconds, &row.has_paper));
    RDMAJOIN_RETURN_IF_ERROR(item.Get("unit", &row.unit));
    if (const JsonValue* v = item.Find("measured_value");
        v != nullptr && !v->is_null()) {
      if (!v->is_number()) {
        return RowError(row.label, "measured_value is not a number");
      }
      row.measured_value = v->number_value;
      row.has_value = true;
    }
    if (IsCountRow(row) &&
        !(row.measured_value >= 0 && row.measured_value <= kMaxExactCount &&
          row.measured_value == std::floor(row.measured_value))) {
      return RowError(row.label, "measured_value " +
                                     JsonNumber(row.measured_value) +
                                     " is not a count of " + row.unit);
    }
    if (const JsonValue* model = item.Find("model"); model != nullptr) {
      RDMAJOIN_RETURN_IF_ERROR(ReadSeconds(*model, "total_seconds", row.label,
                                           &row.model_seconds, &row.has_model,
                                           "model."));
      if (row.has_model) {
        RDMAJOIN_RETURN_IF_ERROR(
            model->Get("residual_seconds", &row.residual_seconds));
      }
    }
    if (const JsonValue* counters = item.Find("counters"); counters != nullptr) {
      uint64_t events = 0;
      uint64_t fabric_steps = 0;
      RDMAJOIN_RETURN_IF_ERROR(
          counters->Get("events", &events, "fabric_steps", &fabric_steps));
      // Every fabric step is taken at an event.
      if (fabric_steps > events) {
        return RowError(row.label, "counters.fabric_steps " +
                                       std::to_string(fabric_steps) +
                                       " > events " + std::to_string(events));
      }
    }
    row.raw = item;
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

StatusOr<BenchJsonDocument> ReadBenchJsonFile(const std::string& path) {
  RDMAJOIN_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  auto doc = ParseBenchJson(text);
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().message());
  }
  return doc;
}

bool ExceedsMargin(double old_value, double new_value,
                   const BenchDiffOptions& options) {
  return std::fabs(new_value - old_value) >
         std::max(options.relative_tolerance * std::fabs(old_value),
                  options.absolute_tolerance_seconds);
}

std::string BenchDiffResult::Summary(bool report_improvements) const {
  std::string out;
  for (const BenchDiffEntry& e : entries) {
    const std::string old_value = EntryValue(e, true);
    const std::string new_value = EntryValue(e, false);
    if (e.missing_in_new) {
      Appendf(&out, "  %-40s %s -> MISSING\n", e.label.c_str(),
              old_value.c_str());
    } else if (e.added_in_new) {
      Appendf(&out, "  %-40s ADDED -> %s\n", e.label.c_str(),
              new_value.c_str());
    } else if (!e.count_unit.empty()) {
      Appendf(&out, "  %-40s %s -> %s  %s\n", e.label.c_str(),
              old_value.c_str(), new_value.c_str(),
              e.regression ? "CHANGED" : "exact");
    } else {
      Appendf(&out, "  %-40s %s -> %s  (%+7.2f%%)  %s\n", e.label.c_str(),
              old_value.c_str(), new_value.c_str(),
              e.old_seconds > 0 ? 100.0 * e.delta_seconds / e.old_seconds : 0.0,
              e.regression    ? "REGRESSION"
              : e.improvement ? "improved"
                              : "ok");
    }
  }
  Appendf(&out,
          "%zu row(s): %zu regression(s), %zu improvement(s), %zu missing, "
          "%zu added\n",
          entries.size(), regressions, improvements, missing, added);
  if (report_improvements && improvements > 0) {
    double saved = 0;
    Appendf(&out, "speedups beyond tolerance:\n");
    for (const BenchDiffEntry& e : entries) {
      if (!e.improvement) continue;
      saved += -e.delta_seconds;
      Appendf(&out, "  %-40s %.4f s faster (%.2fx)\n", e.label.c_str(),
              -e.delta_seconds, e.ratio > 0 ? 1.0 / e.ratio : 0.0);
    }
    Appendf(&out, "  total saved: %.4f s across %zu row(s)\n", saved,
            improvements);
  }
  return out;
}

StatusOr<BenchDiffResult> DiffBenchDocuments(const BenchJsonDocument& baseline,
                                             const BenchJsonDocument& current,
                                             const BenchDiffOptions& options) {
  if (baseline.bench != current.bench) {
    return Status::InvalidArgument("bench mismatch: baseline is '" +
                                   baseline.bench + "', current is '" +
                                   current.bench + "'");
  }
  if (baseline.schema_version != current.schema_version) {
    return Status::InvalidArgument("schema version mismatch");
  }
  if (baseline.scale_up != current.scale_up) {
    return Status::InvalidArgument(
        "scale_up mismatch: baseline ran at " +
        std::to_string(baseline.scale_up) + ", current at " +
        std::to_string(current.scale_up) + " -- not comparable");
  }
  BenchDiffResult result;
  for (const BenchJsonRow& old_row : baseline.rows) {
    if (!IsCompared(old_row)) continue;
    BenchDiffEntry entry;
    entry.label = old_row.label;
    const BenchJsonRow* new_row = current.FindRow(old_row.label);
    if (IsCountRow(old_row)) {
      entry.count_unit = old_row.unit;
      entry.old_count = static_cast<uint64_t>(old_row.measured_value);
    } else {
      entry.old_seconds = old_row.measured_seconds;
    }
    if (!Matches(old_row, new_row)) {
      entry.missing_in_new = true;
      ++result.missing;
    } else if (IsCountRow(old_row)) {
      entry.new_count = static_cast<uint64_t>(new_row->measured_value);
      entry.regression = entry.new_count != entry.old_count;
    } else {
      entry.new_seconds = new_row->measured_seconds;
      entry.delta_seconds = entry.new_seconds - entry.old_seconds;
      entry.ratio =
          entry.old_seconds > 0 ? entry.new_seconds / entry.old_seconds : 0;
      if (ExceedsMargin(entry.old_seconds, entry.new_seconds, options)) {
        (entry.delta_seconds > 0 ? entry.regression : entry.improvement) = true;
      }
    }
    result.regressions += entry.regression ? 1 : 0;
    result.improvements += entry.improvement ? 1 : 0;
    result.entries.push_back(std::move(entry));
  }
  for (const BenchJsonRow& new_row : current.rows) {
    if (!IsCompared(new_row)) continue;
    const BenchJsonRow* old_row = baseline.FindRow(new_row.label);
    if (old_row != nullptr && IsCompared(*old_row) &&
        Matches(*old_row, &new_row)) {
      continue;
    }
    BenchDiffEntry entry;
    entry.label = new_row.label;
    entry.added_in_new = true;
    if (IsCountRow(new_row)) {
      entry.count_unit = new_row.unit;
      entry.new_count = static_cast<uint64_t>(new_row.measured_value);
    } else {
      entry.new_seconds = new_row.measured_seconds;
    }
    ++result.added;
    result.entries.push_back(std::move(entry));
  }
  return result;
}

}  // namespace rdmajoin
