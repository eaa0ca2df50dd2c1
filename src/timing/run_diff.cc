#include "timing/run_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "timing/span_query.h"
#include "util/file.h"
#include "util/json.h"

namespace rdmajoin {

namespace {

/// The bench JSON keys of the four phases, in execution order.
constexpr const char* kPhaseJsonKey[kNumJoinPhases] = {
    "histogram_seconds", "network_partition_seconds", "local_partition_seconds",
    "build_probe_seconds"};

/// The attribution buckets, in schema order (breakdown key = name +
/// "_seconds"; fault_recovery is omitted from fault-free bench JSON and
/// defaults to 0 here).
constexpr const char* kBucketName[] = {"compute", "network", "buffer_stall",
                                       "barrier_wait", "fault_recovery"};
constexpr size_t kNumBuckets = 5;

/// The critical_path entry of `phase` in a row's attribution, or null.
const JsonValue* FindCriticalStep(const JsonValue& row, std::string_view phase) {
  const JsonValue* attribution = row.Find("attribution");
  if (attribution == nullptr) return nullptr;
  const JsonValue* path = attribution->Find("critical_path");
  if (path == nullptr || !path->is_array()) return nullptr;
  for (const JsonValue& step : path->array_items) {
    if (step.StringOr("phase", "") == phase) return &step;
  }
  return nullptr;
}

double PhaseFromRow(const JsonValue& row, size_t phase) {
  const JsonValue* phases = row.Find("phases");
  return phases == nullptr ? 0.0 : phases->NumberOr(kPhaseJsonKey[phase], 0.0);
}

/// Structural equality of two parsed JSON documents. Object member order is
/// significant -- the snapshots this compares are emitted in sorted order, so
/// order-sensitive comparison is both correct and the stricter check.
bool JsonEquals(const JsonValue& x, const JsonValue& y) {
  if (x.kind != y.kind) return false;
  switch (x.kind) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return x.bool_value == y.bool_value;
    case JsonValue::Kind::kNumber:
      return x.number_value == y.number_value;
    case JsonValue::Kind::kString:
      return x.string_value == y.string_value;
    case JsonValue::Kind::kArray:
      if (x.array_items.size() != y.array_items.size()) return false;
      for (size_t i = 0; i < x.array_items.size(); ++i) {
        if (!JsonEquals(x.array_items[i], y.array_items[i])) return false;
      }
      return true;
    case JsonValue::Kind::kObject:
      if (x.object_members.size() != y.object_members.size()) return false;
      for (size_t i = 0; i < x.object_members.size(); ++i) {
        if (x.object_members[i].first != y.object_members[i].first) return false;
        if (!JsonEquals(x.object_members[i].second, y.object_members[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

std::string Pct(double delta, double base) {
  char buf[32];
  if (base > 0) {
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * delta / base);
  } else {
    std::snprintf(buf, sizeof(buf), "%+.6f s", delta);
  }
  return buf;
}

Status DiffPhases(const BenchJsonRow& a, const BenchJsonRow& b, RowDelta* row) {
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    PhaseDelta pd;
    pd.phase = std::string(JoinPhaseName(static_cast<JoinPhase>(p)));
    pd.a_seconds = PhaseFromRow(a.raw, p);
    pd.b_seconds = PhaseFromRow(b.raw, p);
    pd.delta_seconds = pd.b_seconds - pd.a_seconds;

    const JsonValue* step_a = FindCriticalStep(a.raw, pd.phase);
    const JsonValue* step_b = FindCriticalStep(b.raw, pd.phase);
    if (step_a != nullptr && step_b != nullptr) {
      RDMAJOIN_RETURN_IF_ERROR(step_a->Get("machine", &pd.a_machine));
      RDMAJOIN_RETURN_IF_ERROR(step_b->Get("machine", &pd.b_machine));
      const JsonValue* breakdown_a = step_a->Find("breakdown");
      const JsonValue* breakdown_b = step_b->Find("breakdown");
      double best = 0;
      for (size_t i = 0; i < kNumBuckets; ++i) {
        BucketDelta bd;
        bd.bucket = kBucketName[i];
        const std::string key = bd.bucket + "_seconds";
        bd.a_seconds = breakdown_a == nullptr ? 0 : breakdown_a->NumberOr(key, 0);
        bd.b_seconds = breakdown_b == nullptr ? 0 : breakdown_b->NumberOr(key, 0);
        bd.delta_seconds = bd.b_seconds - bd.a_seconds;
        if (std::fabs(bd.delta_seconds) > best) {
          best = std::fabs(bd.delta_seconds);
          pd.dominant_bucket = bd.bucket;
          pd.dominant_bucket_share =
              pd.delta_seconds != 0
                  ? std::fabs(bd.delta_seconds) / std::fabs(pd.delta_seconds)
                  : 0;
        }
        pd.buckets.push_back(bd);
      }
    }
    row->phases.push_back(pd);
  }

  // Dominant phase + narrative.
  const PhaseDelta* dominant = nullptr;
  for (const PhaseDelta& pd : row->phases) {
    if (dominant == nullptr ||
        std::fabs(pd.delta_seconds) > std::fabs(dominant->delta_seconds)) {
      dominant = &pd;
    }
  }
  if (dominant != nullptr && dominant->delta_seconds != 0) {
    row->dominant_phase = dominant->phase;
    std::string n = dominant->phase + " " +
                    Pct(dominant->delta_seconds, dominant->a_seconds) +
                    " on machine " + std::to_string(dominant->b_machine);
    if (!dominant->dominant_bucket.empty() && dominant->dominant_bucket_share > 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), ", %.0f%% of it %s",
                    100.0 * std::min(dominant->dominant_bucket_share, 1.0),
                    dominant->dominant_bucket.c_str());
      n += buf;
    }
    row->narrative = n;
  }
  return Status::OK();
}

void DiffSpans(const SpanDataset& a, const SpanDataset& b, size_t top_k,
               RunDiffReport* report) {
  for (int s = 0; s < kNumSpanStages; ++s) {
    const SpanStage stage = static_cast<SpanStage>(s);
    const StageStats sa = ComputeStageStats(a, stage);
    const StageStats sb = ComputeStageStats(b, stage);
    StageDelta sd;
    sd.stage = SpanStageName(stage);
    sd.a_count = sa.count;
    sd.b_count = sb.count;
    sd.a_p50 = sa.p50;
    sd.b_p50 = sb.p50;
    sd.a_p99 = sa.p99;
    sd.b_p99 = sb.p99;
    sd.a_total = sa.total;
    sd.b_total = sb.total;
    sd.delta_total = sb.total - sa.total;
    report->stages.push_back(sd);
  }

  // Per-work-request durations, matched by span id (identical-seed runs
  // replay the same send sequence, so ids align across runs).
  std::map<uint64_t, const WrSpan*> by_id;
  for (const WrSpan& s : a.spans) by_id[s.id] = &s;
  std::vector<FlowDelta> flows;
  for (const WrSpan& sb : b.spans) {
    auto it = by_id.find(sb.id);
    if (it == by_id.end()) continue;
    const WrSpan& sa = *it->second;
    if (sa.duration() == kSpanUnset || sb.duration() == kSpanUnset) continue;
    if (sa.duration() == sb.duration()) continue;
    FlowDelta fd;
    fd.id = sb.id;
    fd.machine = sb.machine;
    fd.src = sb.src;
    fd.dst = sb.dst;
    fd.a_duration = sa.duration();
    fd.b_duration = sb.duration();
    fd.delta_duration = fd.b_duration - fd.a_duration;
    flows.push_back(fd);
  }
  std::sort(flows.begin(), flows.end(), [](const FlowDelta& x, const FlowDelta& y) {
    if (std::fabs(x.delta_duration) != std::fabs(y.delta_duration)) {
      return std::fabs(x.delta_duration) > std::fabs(y.delta_duration);
    }
    return x.id < y.id;
  });
  if (flows.size() > top_k) flows.resize(top_k);
  report->flows = std::move(flows);

  // The byte-level determinism cross-check: identical runs must serialize
  // identically, stage stats and flow alignment aside.
  if (SpanDatasetToJson(a) != SpanDatasetToJson(b)) {
    report->zero_divergence = false;
  }
}

void DiffMetrics(const JsonValue& a, const JsonValue& b, size_t top_k,
                 RunDiffReport* report) {
  std::vector<MetricDelta> deltas;
  // Scalar sections: counters (name -> number) and gauges (name -> {value}).
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* sec_a = a.Find(section);
    const JsonValue* sec_b = b.Find(section);
    std::map<std::string, std::pair<double, double>> values;
    auto collect = [&values, section](const JsonValue* sec, bool second) {
      if (sec == nullptr || !sec->is_object()) return;
      for (const auto& [name, v] : sec->object_members) {
        const double x = v.is_number() ? v.number_value : v.NumberOr("value", 0);
        auto& slot = values[std::string(section) + "." + name];
        (second ? slot.second : slot.first) = x;
      }
    };
    collect(sec_a, false);
    collect(sec_b, true);
    for (const auto& [name, pair] : values) {
      ++report->metrics_compared;
      if (pair.first != pair.second) {
        ++report->metrics_diverged;
        MetricDelta md;
        md.name = name;
        md.a_value = pair.first;
        md.b_value = pair.second;
        md.delta = pair.second - pair.first;
        deltas.push_back(md);
      }
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const MetricDelta& x, const MetricDelta& y) {
              if (std::fabs(x.delta) != std::fabs(y.delta)) {
                return std::fabs(x.delta) > std::fabs(y.delta);
              }
              return x.name < y.name;
            });
  if (deltas.size() > top_k) deltas.resize(top_k);
  report->metrics = std::move(deltas);
  if (!JsonEquals(a, b)) report->zero_divergence = false;
}

}  // namespace

StatusOr<RunDiffReport> DiffRuns(const RunArtifacts& a, const RunArtifacts& b,
                                 const BenchDiffOptions& options, size_t top_k) {
  const BenchJsonDocument& da = a.bench;
  const BenchJsonDocument& db = b.bench;
  RunDiffReport report;
  RDMAJOIN_ASSIGN_OR_RETURN(report.diff, DiffBenchDocuments(da, db, options));
  report.bench = da.bench;
  report.scale_up = da.scale_up;
  report.seed_a = da.seed;
  report.seed_b = db.seed;

  for (const BenchDiffEntry& e : report.diff.entries) {
    RowDelta rd;
    rd.row = e;
    if (e.missing_in_new) {
      rd.narrative = "row missing (or no longer ok) in run B";
    } else if (e.added_in_new) {
      rd.narrative = "row only present in run B";
    } else if (!e.count_unit.empty()) {
      if (e.regression) {
        rd.narrative = std::to_string(e.old_count) + " -> " +
                       std::to_string(e.new_count) + " " + e.count_unit;
      }
    } else {
      report.a_total_seconds += e.old_seconds;
      report.b_total_seconds += e.new_seconds;
      if (e.regression || e.improvement) {
        RDMAJOIN_RETURN_IF_ERROR(
            DiffPhases(*da.FindRow(e.label), *db.FindRow(e.label), &rd));
      }
    }
    report.rows.push_back(std::move(rd));
  }
  report.delta_total_seconds = report.b_total_seconds - report.a_total_seconds;

  report.zero_divergence =
      !report.HasDivergence() && da.rows.size() == db.rows.size();
  for (size_t i = 0; report.zero_divergence && i < da.rows.size(); ++i) {
    report.zero_divergence = JsonEquals(da.rows[i].raw, db.rows[i].raw);
  }
  if (a.spans.has_value() && b.spans.has_value()) {
    DiffSpans(*a.spans, *b.spans, top_k, &report);
  } else if (a.spans.has_value() != b.spans.has_value()) {
    report.zero_divergence = false;
  }
  if (a.metrics.has_value() && b.metrics.has_value()) {
    DiffMetrics(*a.metrics, *b.metrics, top_k, &report);
  } else if (a.metrics.has_value() != b.metrics.has_value()) {
    report.zero_divergence = false;
  }

  // Verdict: the worst offending row's narrative, or the all-clear.
  if (report.zero_divergence) {
    report.verdict = "runs are identical (zero divergence)";
  } else if (!report.HasDivergence()) {
    report.verdict = "runs differ only within tolerance (total " +
                     Pct(report.delta_total_seconds, report.a_total_seconds) +
                     ")";
  } else {
    const RowDelta* worst = nullptr;
    for (const RowDelta& rd : report.rows) {
      const BenchDiffEntry& e = rd.row;
      if (!(e.regression || e.improvement || e.missing_in_new || e.added_in_new)) {
        continue;
      }
      if (worst == nullptr ||
          std::fabs(e.delta_seconds) > std::fabs(worst->row.delta_seconds)) {
        worst = &rd;
      }
    }
    const BenchDiffEntry& w = worst->row;
    report.verdict = "'" + w.label + "'";
    if (!w.missing_in_new && !w.added_in_new && w.count_unit.empty()) {
      report.verdict += " " + Pct(w.delta_seconds, w.old_seconds);
    }
    if (!worst->narrative.empty()) report.verdict += ": " + worst->narrative;
  }
  return report;
}

StatusOr<RunArtifacts> LoadRunArtifacts(const std::string& bench_path,
                                        const std::string& spans_path,
                                        const std::string& metrics_path) {
  RunArtifacts artifacts;
  auto bench = ReadBenchJsonFile(bench_path);
  if (!bench.ok()) return bench.status();
  artifacts.bench = std::move(*bench);
  if (!spans_path.empty()) {
    auto spans = ReadSpanDatasetFile(spans_path);
    if (!spans.ok()) return spans.status();
    artifacts.spans = std::move(*spans);
  }
  if (!metrics_path.empty()) {
    RDMAJOIN_ASSIGN_OR_RETURN(const std::string text,
                              ReadFileToString(metrics_path));
    auto metrics = ParseJson(text);
    if (!metrics.ok()) {
      return Status::InvalidArgument(metrics_path + ": " +
                                     metrics.status().message());
    }
    artifacts.metrics = std::move(*metrics);
  }
  return artifacts;
}

std::string FormatRunDiff(const RunDiffReport& report, bool report_improvements) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "run diff: %s (scale %.0f, seed %llu vs %llu)\n",
                report.bench.c_str(), report.scale_up,
                static_cast<unsigned long long>(report.seed_a),
                static_cast<unsigned long long>(report.seed_b));
  out += buf;
  out += "verdict: " + report.verdict + "\n";
  std::snprintf(buf, sizeof(buf), "totals: %.6f s -> %.6f s (%s)\n\n",
                report.a_total_seconds, report.b_total_seconds,
                Pct(report.delta_total_seconds, report.a_total_seconds).c_str());
  out += buf;
  out += report.diff.Summary(report_improvements);

  // Drill-downs for the rows that moved.
  for (const RowDelta& rd : report.rows) {
    if (!(rd.row.regression || (report_improvements && rd.row.improvement))) {
      continue;
    }
    out += "\n'" + rd.row.label + "': " +
           (rd.narrative.empty() ? "no phase-level movement" : rd.narrative) +
           "\n";
    for (const PhaseDelta& pd : rd.phases) {
      if (pd.delta_seconds == 0) continue;
      std::snprintf(buf, sizeof(buf),
                    "    %-18s %12.6f -> %12.6f (%s, critical machine %u -> %u)\n",
                    pd.phase.c_str(), pd.a_seconds, pd.b_seconds,
                    Pct(pd.delta_seconds, pd.a_seconds).c_str(), pd.a_machine,
                    pd.b_machine);
      out += buf;
      for (const BucketDelta& bd : pd.buckets) {
        if (bd.delta_seconds == 0) continue;
        std::snprintf(buf, sizeof(buf), "      %-16s %12.6f -> %12.6f (%+.6f s)\n",
                      bd.bucket.c_str(), bd.a_seconds, bd.b_seconds,
                      bd.delta_seconds);
        out += buf;
      }
    }
  }

  if (!report.stages.empty()) {
    out += "\nstage latencies (A -> B):\n";
    out += "  stage              count            p50 (s)                 p99 (s)\n";
    for (const StageDelta& sd : report.stages) {
      std::snprintf(buf, sizeof(buf),
                    "  %-16s %6llu->%-6llu %10.6f->%-10.6f %10.6f->%-10.6f\n",
                    sd.stage.c_str(), static_cast<unsigned long long>(sd.a_count),
                    static_cast<unsigned long long>(sd.b_count), sd.a_p50,
                    sd.b_p50, sd.a_p99, sd.b_p99);
      out += buf;
    }
  }
  if (!report.flows.empty()) {
    out += "\ntop diverging work requests:\n";
    for (const FlowDelta& fd : report.flows) {
      std::snprintf(buf, sizeof(buf),
                    "  span %-8llu m%u %u->%u  %10.6f -> %10.6f (%+.6f s)\n",
                    static_cast<unsigned long long>(fd.id), fd.machine, fd.src,
                    fd.dst, fd.a_duration, fd.b_duration, fd.delta_duration);
      out += buf;
    }
  }
  if (report.metrics_compared > 0) {
    std::snprintf(buf, sizeof(buf), "\nmetrics: %llu compared, %llu diverged\n",
                  static_cast<unsigned long long>(report.metrics_compared),
                  static_cast<unsigned long long>(report.metrics_diverged));
    out += buf;
    for (const MetricDelta& md : report.metrics) {
      std::snprintf(buf, sizeof(buf), "  %-40s %.17g -> %.17g\n", md.name.c_str(),
                    md.a_value, md.b_value);
      out += buf;
    }
  }
  return out;
}

std::string RunDiffToJson(const RunDiffReport& report) {
  std::string out;
  JsonWriter w(&out);
  auto count = [&w](const char* key, uint64_t v) {
    w.Key(key).Number(static_cast<double>(v));
  };
  w.BeginObject().Key("schema_version").Uint(1);
  w.Key("bench").String(report.bench);
  w.Key("scale_up").Number(report.scale_up);
  count("seed_a", report.seed_a);
  count("seed_b", report.seed_b);
  w.Key("a_total_seconds").Number(report.a_total_seconds);
  w.Key("b_total_seconds").Number(report.b_total_seconds);
  w.Key("delta_total_seconds").Number(report.delta_total_seconds);
  w.Key("zero_divergence").Bool(report.zero_divergence);
  count("rows_slower", report.diff.regressions);
  count("rows_faster", report.diff.improvements);
  count("rows_missing", report.diff.missing);
  count("rows_added", report.diff.added);
  w.Key("verdict").String(report.verdict);
  w.Key("rows").BeginArray();
  for (const RowDelta& rd : report.rows) {
    const BenchDiffEntry& e = rd.row;
    w.BeginObject().Key("label").String(e.label);
    w.Key("a_seconds").Number(e.old_seconds);
    w.Key("b_seconds").Number(e.new_seconds);
    w.Key("delta_seconds").Number(e.delta_seconds);
    w.Key("ratio").Number(e.ratio);
    w.Key("slower").Bool(e.regression);
    w.Key("faster").Bool(e.improvement);
    w.Key("missing_in_b").Bool(e.missing_in_new);
    w.Key("added_in_b").Bool(e.added_in_new);
    if (!rd.dominant_phase.empty()) {
      w.Key("dominant_phase").String(rd.dominant_phase);
    }
    if (!rd.narrative.empty()) w.Key("narrative").String(rd.narrative);
    w.Key("phases").BeginArray();
    for (const PhaseDelta& pd : rd.phases) {
      w.BeginObject().Key("phase").String(pd.phase);
      w.Key("a_seconds").Number(pd.a_seconds);
      w.Key("b_seconds").Number(pd.b_seconds);
      w.Key("delta_seconds").Number(pd.delta_seconds);
      w.Key("a_machine").Number(pd.a_machine);
      w.Key("b_machine").Number(pd.b_machine);
      if (!pd.dominant_bucket.empty()) {
        w.Key("dominant_bucket").String(pd.dominant_bucket);
        w.Key("dominant_bucket_share").Number(pd.dominant_bucket_share);
      }
      w.Key("buckets").BeginArray();
      for (const BucketDelta& bd : pd.buckets) {
        w.BeginObject().Key("bucket").String(bd.bucket);
        w.Key("a_seconds").Number(bd.a_seconds);
        w.Key("b_seconds").Number(bd.b_seconds);
        w.Key("delta_seconds").Number(bd.delta_seconds).EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().Key("stages").BeginArray();
  for (const StageDelta& sd : report.stages) {
    w.BeginObject().Key("stage").String(sd.stage);
    count("a_count", sd.a_count);
    count("b_count", sd.b_count);
    w.Key("a_p50").Number(sd.a_p50).Key("b_p50").Number(sd.b_p50);
    w.Key("a_p99").Number(sd.a_p99).Key("b_p99").Number(sd.b_p99);
    w.Key("a_total").Number(sd.a_total).Key("b_total").Number(sd.b_total);
    w.Key("delta_total").Number(sd.delta_total).EndObject();
  }
  w.EndArray().Key("flows").BeginArray();
  for (const FlowDelta& fd : report.flows) {
    w.BeginObject();
    count("id", fd.id);
    w.Key("machine").Number(fd.machine);
    w.Key("src").Number(fd.src);
    w.Key("dst").Number(fd.dst);
    w.Key("a_duration").Number(fd.a_duration);
    w.Key("b_duration").Number(fd.b_duration);
    w.Key("delta_duration").Number(fd.delta_duration).EndObject();
  }
  w.EndArray().Key("metrics").BeginObject();
  count("compared", report.metrics_compared);
  count("diverged", report.metrics_diverged);
  w.Key("top").BeginArray();
  for (const MetricDelta& md : report.metrics) {
    w.BeginObject().Key("name").String(md.name);
    w.Key("a_value").Number(md.a_value);
    w.Key("b_value").Number(md.b_value);
    w.Key("delta").Number(md.delta).EndObject();
  }
  w.EndArray().EndObject().EndObject();
  return out;
}

}  // namespace rdmajoin
