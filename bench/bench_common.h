#ifndef RDMAJOIN_BENCH_BENCH_COMMON_H_
#define RDMAJOIN_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "join/distributed_join.h"
#include "model/analytical_model.h"
#include "rdma/validator.h"
#include "timing/attribution.h"
#include "tools/flags.h"
#include "util/bench_json.h"
#include "util/file.h"
#include "util/json.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace bench {

/// Command-line/environment options shared by all figure harnesses.
///
/// The harnesses run the paper's workloads on a scaled data path: the
/// simulation moves paper_tuples / scale_up real tuples (with RDMA buffers
/// co-scaled), and all reported times are virtual full-scale seconds directly
/// comparable to the paper's figures. Lower scale_up = more fidelity, more
/// runtime. Override with --scale=N or RDMAJOIN_SCALE_UP=N.
struct Options {
  double scale_up = 1024.0;
  bool csv = false;
  uint64_t seed = 42;
  /// Machine-readable results: every harness emits BENCH_<name>.json next to
  /// its table output unless --no-json is given; --json-out overrides the
  /// path. tools/rdmajoin_analyze renders and diffs these files.
  bool json = true;
  std::string json_out;
};

[[noreturn]] inline void OptionError(const std::string& what) {
  std::fprintf(stderr, "error: %s; try --help\n", what.c_str());
  std::exit(2);
}

/// Parses the shared bench flags. Unknown flags and malformed values are
/// fatal (exit 2) -- a typo must not silently run a default configuration.
/// `extra_flags` are the individual harness's own table entries (e.g.
/// fig03's --presets).
inline Options ParseOptions(int argc, char** argv, double default_scale = 1024.0,
                            std::vector<Flag> extra_flags = {}) {
  Options opt;
  opt.scale_up = default_scale;
  if (const char* env = std::getenv("RDMAJOIN_SCALE_UP")) {
    if (!ParseDoubleValue(env, &opt.scale_up)) {
      OptionError(std::string("RDMAJOIN_SCALE_UP is not a number: '") + env +
                  "'");
    }
  }
  bool no_json = false;
  std::vector<Flag> table = {
      // The >= 1 floor is checked below, where it covers RDMAJOIN_SCALE_UP too.
      DoubleFlag("--scale", &opt.scale_up, 0, kMaxScale,
                 "virtual scale-up factor, N >= 1 (also env\n"
                 "RDMAJOIN_SCALE_UP)"),
      UintFlag("--seed", &opt.seed, 0, UINT64_MAX,
               "workload RNG seed (default 42)"),
      SwitchFlag("--csv", &opt.csv, "print tables as CSV"),
      StringFlag("--json-out", "PATH", &opt.json_out,
                 "write the machine-readable results to PATH\n"
                 "(default BENCH_<bench>.json in the working dir)"),
      SwitchFlag("--no-json", &no_json, "skip writing the JSON results file")};
  for (Flag& f : extra_flags) table.push_back(std::move(f));
  FlagTable flags(std::string("usage: ") + argv[0] + " [flags]", std::move(table));
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 2)) {
    std::exit(*exit_code);
  }
  if (opt.scale_up < 1.0) {
    OptionError("--scale must be >= 1 (times are virtual full-scale seconds; "
                "scale 1 replays the full workload)");
  }
  opt.json = !no_json;
  return opt;
}

/// One experiment execution: result verification plus the virtual times.
struct RunOutcome {
  bool ok = false;
  bool verified = false;
  std::string error;
  PhaseTimes times;
  JoinResultStats stats;
  NetworkSummary net;
  ReplayReport replay;
  /// Verbs-contract conformance of the run (PR 1 validator, report mode):
  /// every bench doubles as a protocol-conformance check. Non-zero counts
  /// surface in the table footer and the bench JSON.
  uint64_t protocol_violations = 0;
  ProtocolReport protocol;
};

/// Extra knobs applied on top of the default JoinConfig.
using ConfigTweak = std::function<void(JoinConfig*)>;

/// Runs the distributed join on `cluster` with a workload of
/// `inner_mtuples` x `outer_mtuples` million tuples (paper units).
inline RunOutcome RunPaperJoin(const ClusterConfig& cluster, double inner_mtuples,
                               double outer_mtuples, const Options& opt,
                               double zipf_theta = 0.0, uint32_t tuple_bytes = 16,
                               const ConfigTweak& tweak = nullptr) {
  RunOutcome out;
  WorkloadSpec spec;
  spec.inner_tuples =
      static_cast<uint64_t>(inner_mtuples * 1e6 / opt.scale_up + 0.5);
  spec.outer_tuples =
      static_cast<uint64_t>(outer_mtuples * 1e6 / opt.scale_up + 0.5);
  spec.tuple_bytes = tuple_bytes;
  spec.zipf_theta = zipf_theta;
  spec.seed = opt.seed;
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  if (!workload.ok()) {
    out.error = workload.status().ToString();
    return out;
  }
  JoinConfig jc;
  jc.scale_up = opt.scale_up;
  if (zipf_theta > 0) jc.assignment = AssignmentPolicy::kSkewAware;
  if (tweak) tweak(&jc);
  // Every bench run is also a protocol-conformance run: the validator
  // observes all verbs traffic in report (non-strict) mode, so violations
  // are counted instead of failing the run.
  ProtocolValidator validator(ProtocolValidator::Mode::kReport);
  if (jc.validator == nullptr) jc.validator = &validator;
  DistributedJoin join(cluster, jc);
  auto result = join.Run(workload->inner, workload->outer);
  out.protocol = jc.validator->report();
  out.protocol_violations = out.protocol.total();
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.times = result->times;
  out.stats = result->stats;
  out.net = result->net;
  out.replay = result->replay;
  out.verified = result->stats.matches == workload->truth.expected_matches &&
                 result->stats.key_sum == workload->truth.expected_key_sum &&
                 result->stats.inner_rid_sum == workload->truth.expected_inner_rid_sum;
  return out;
}

/// Captures the execution traces of several independent joins on `cluster`,
/// one per entry of `query_mtuples` (million tuples, inner == outer), with
/// per-query workload seeds opt.seed + index. This is the multi-trace
/// capture loop shared by the co-scheduling harnesses
/// (ext_concurrent_queries, ext_traffic): capture once, then replay the
/// traces under whatever interleaving is being studied.
inline StatusOr<std::vector<RunTrace>> CaptureQueryTraces(
    const ClusterConfig& cluster, const JoinConfig& jc, const Options& opt,
    const std::vector<double>& query_mtuples) {
  std::vector<RunTrace> traces;
  traces.reserve(query_mtuples.size());
  for (size_t q = 0; q < query_mtuples.size(); ++q) {
    WorkloadSpec spec;
    spec.inner_tuples =
        static_cast<uint64_t>(query_mtuples[q] * 1e6 / opt.scale_up);
    spec.outer_tuples = spec.inner_tuples;
    spec.seed = opt.seed + q;
    auto workload = GenerateWorkload(spec, cluster.num_machines);
    if (!workload.ok()) return workload.status();
    auto result = DistributedJoin(cluster, jc).Run(workload->inner,
                                                   workload->outer);
    if (!result.ok()) return result.status();
    traces.push_back(std::move(result->trace));
  }
  return traces;
}

inline void PrintScaleNote(const Options& opt) {
  std::printf(
      "# scale_up = %.0f (data path runs paper_tuples/%.0f tuples; times are "
      "virtual full-scale seconds)\n\n",
      opt.scale_up, opt.scale_up);
}

/// Collects every data point of one bench run and writes the
/// schema-versioned machine-readable twin of the printed tables:
/// BENCH_<name>.json (util/bench_json.h documents the schema,
/// tools/rdmajoin_analyze renders and regression-diffs it).
///
/// Output is deterministic for a fixed (seed, scale) configuration -- no
/// timestamps, shortest-round-trip number formatting -- so identical-seed
/// reruns diff clean and the committed baselines in bench/baselines/ gate
/// perf regressions in CI.
class BenchReporter {
 public:
  /// Config key/value pairs describing one row's parameters.
  using Config = std::vector<std::pair<std::string, std::string>>;

  BenchReporter(std::string bench_name, const Options& opt)
      : name_(std::move(bench_name)), opt_(opt) {}

  /// Full join run: phases, attribution, verification, protocol counts.
  /// `paper_seconds` is the figure's reference value (<= 0: none);
  /// `model` the closed-form prediction for this point, when one exists.
  /// The replay's deterministic work counters (ReplayCounters) ride along,
  /// so a byte-identical baseline gates them exactly.
  void AddRun(const std::string& label, const Config& config,
              const RunOutcome& run, double paper_seconds = 0,
              const ModelEstimate* model = nullptr) {
    std::string row;
    JsonWriter w = OpenRow(&row, label, config);
    if (!run.ok) {
      w.Key("ok").Bool(false).Key("error").String(run.error);
      CloseRow(&w, &row);
      return;
    }
    w.Key("ok").Bool(true).Key("verified").Bool(run.verified);
    w.Key("measured_seconds").Number(run.times.TotalSeconds());
    WritePhases(&w.Key("phases"), run.times);
    WriteAttribution(&w.Key("attribution"), run.replay.attribution);
    w.Key("protocol_violations")
        .Number(static_cast<double>(run.protocol_violations));
    if (paper_seconds > 0) w.Key("paper_seconds").Number(paper_seconds);
    if (model != nullptr) WriteModel(&w.Key("model"), *model, run.times);
    WriteCounters(&w.Key("counters"), run.replay.counters);
    CloseRow(&w, &row);
  }

  /// Scalar measurement (bandwidth probes, replay-only harnesses) in the
  /// unit named by `unit`; also mirrored into measured_seconds when the
  /// measurement is a duration so the regression gate can diff it.
  void AddMeasurement(const std::string& label, const Config& config,
                      double value, const std::string& unit = "seconds",
                      double paper_value = 0) {
    std::string row;
    JsonWriter w = OpenRow(&row, label, config);
    w.Key("ok").Bool(true).Key("verified").Bool(true);
    if (unit == "seconds") {
      w.Key("measured_seconds").Number(value);
    } else {
      w.Key("measured_value").Number(value).Key("unit").String(unit);
    }
    if (paper_value > 0) w.Key("paper_" + unit).Number(paper_value);
    CloseRow(&w, &row);
  }

  /// A point that failed to run (out of memory, invalid config, ...).
  void AddError(const std::string& label, const Config& config,
                const std::string& error) {
    std::string row;
    JsonWriter w = OpenRow(&row, label, config);
    w.Key("ok").Bool(false).Key("error").String(error);
    CloseRow(&w, &row);
  }

  std::string ToJson() const {
    std::string out;
    JsonWriter w(&out);
    w.BeginObject();
    w.Break(2).Key("schema_version").Int(kBenchJsonSchemaVersion);
    w.Break(2).Key("bench").String(name_);
    w.Break(2).Key("scale_up").Number(opt_.scale_up);
    w.Break(2).Key("seed").Number(static_cast<double>(opt_.seed));
    w.Break(2).Key("rows").BeginArray();
    for (const std::string& row : rows_) w.Break(4).Raw(row);
    w.Break(2).EndArray();
    w.Break(0).EndObject();
    out += "\n";
    return out;
  }

  /// Writes the JSON file (unless --no-json) and prints its path. Returns
  /// false when the file cannot be written.
  bool Write() const {
    if (!opt_.json) return true;
    const std::string path =
        opt_.json_out.empty() ? "BENCH_" + name_ + ".json" : opt_.json_out;
    if (const Status st = WriteStringToFile(path, ToJson()); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return false;
    }
    std::printf("# wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

  /// Convenience for main(): write and turn failure into an exit code.
  int Finish() const { return Write() ? 0 : 1; }

  const std::string& name() const { return name_; }
  size_t row_count() const { return rows_.size(); }

 private:
  /// Numeric-looking config values are written as JSON numbers, spelled
  /// as given; everything else is a string.
  static void WriteConfigValue(JsonWriter* w, const std::string& v) {
    const bool numeric_start =
        !v.empty() && (std::isdigit(static_cast<unsigned char>(v[0])) ||
                       (v[0] == '-' && v.size() > 1 &&
                        std::isdigit(static_cast<unsigned char>(v[1]))));
    JsonTokenizer number(v);
    if (numeric_start && number.Next().ok() &&
        number.token() == JsonTokenizer::Token::kNumber &&
        number.Finish().ok()) {
      w->Raw(v);
    } else {
      w->String(v);
    }
  }

  static JsonWriter OpenRow(std::string* row, const std::string& label,
                            const Config& config) {
    JsonWriter w(row);
    w.BeginObject().Key("label").String(label).Key("config").BeginObject();
    for (const auto& [key, value] : config) WriteConfigValue(&w.Key(key), value);
    w.EndObject();
    return w;
  }

  void CloseRow(JsonWriter* w, std::string* row) {
    w->EndObject();
    rows_.push_back(std::move(*row));
  }

  static void WriteCounters(JsonWriter* w, const ReplayCounters& c) {
    w->BeginObject().Key("events").Uint(c.events);
    w->Key("fabric_steps").Uint(c.fabric_steps);
    w->Key("link_updates").Uint(c.link_updates);
    w->Key("reshared_links").Uint(c.reshared_links);
    w->Key("telemetry_callbacks").Uint(c.telemetry_callbacks);
    w->EndObject();
  }

  static void WritePhases(JsonWriter* w, const PhaseTimes& t) {
    w->BeginObject().Key("histogram_seconds").Number(t.histogram_seconds);
    w->Key("network_partition_seconds").Number(t.network_partition_seconds);
    w->Key("local_partition_seconds").Number(t.local_partition_seconds);
    w->Key("build_probe_seconds").Number(t.build_probe_seconds);
    w->EndObject();
  }

  static void WriteBreakdown(JsonWriter* w, const PhaseAttribution& b) {
    w->BeginObject().Key("compute_seconds").Number(b.compute_seconds);
    w->Key("network_seconds").Number(b.network_seconds);
    w->Key("buffer_stall_seconds").Number(b.buffer_stall_seconds);
    w->Key("barrier_wait_seconds").Number(b.barrier_wait_seconds);
    // Conditional so fault-free bench JSON stays byte-identical to runs
    // produced before the fault subsystem existed.
    if (b.fault_recovery_seconds != 0) {
      w->Key("fault_recovery_seconds").Number(b.fault_recovery_seconds);
    }
    w->EndObject();
  }

  static void WriteAttribution(JsonWriter* w, const AttributionReport& attr) {
    w->BeginObject().Key("critical_path").BeginArray();
    for (const CriticalPathStep& step : attr.CriticalPath()) {
      w->BeginObject().Key("phase").String(JoinPhaseName(step.phase));
      w->Key("machine").Number(step.machine);
      w->Key("seconds").Number(step.phase_seconds);
      WriteBreakdown(&w->Key("breakdown"), step.breakdown);
      w->EndObject();
    }
    w->EndArray();
    const PhaseAttribution total = attr.CriticalPathBreakdown();
    WriteBreakdown(&w->Key("totals"), total);
    // The invariant the analyzer checks: the critical-path components must
    // reproduce the replayed makespan.
    w->Key("makespan_check_seconds").Number(total.TotalSeconds());
    w->EndObject();
  }

  static void WriteModel(JsonWriter* w, const ModelEstimate& est,
                         const PhaseTimes& measured) {
    PhaseTimes predicted;
    predicted.histogram_seconds = est.histogram_seconds;
    predicted.network_partition_seconds = est.network_partition_seconds;
    predicted.local_partition_seconds = est.local_partition_seconds;
    predicted.build_probe_seconds = est.build_probe_seconds;
    const ModelResidual r = ResidualAgainst(measured, predicted);
    w->BeginObject().Key("total_seconds").Number(predicted.TotalSeconds());
    WritePhases(&w->Key("phases"), predicted);
    w->Key("network_bound").Bool(est.network_bound);
    w->Key("residual_seconds").Number(r.total_residual_seconds);
    w->Key("residual_phases").BeginObject();
    w->Key("histogram_seconds").Number(r.histogram_residual_seconds);
    w->Key("network_partition_seconds")
        .Number(r.network_partition_residual_seconds);
    w->Key("local_partition_seconds").Number(r.local_partition_residual_seconds);
    w->Key("build_probe_seconds").Number(r.build_probe_residual_seconds);
    w->EndObject();
    w->Key("relative_error").Number(r.relative_error);
    w->EndObject();
  }

  std::string name_;
  Options opt_;
  std::vector<std::string> rows_;
};

}  // namespace bench
}  // namespace rdmajoin

#endif  // RDMAJOIN_BENCH_BENCH_COMMON_H_
