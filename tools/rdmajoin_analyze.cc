// Critical-path and regression analysis over the observability artifacts:
//
//   # Render a bench result file (tables, attribution, model residuals):
//   rdmajoin_analyze --bench=BENCH_fig07a_phase_breakdown.json
//
//   # Gate on performance regressions between two bench runs (same bench,
//   # schema, scale and seed; exits 1 when any row slowed down beyond
//   # tolerance, a count row changed, or a row disappeared):
//   rdmajoin_analyze --diff baseline.json current.json
//                    [--tolerance=0.05] [--abs-tolerance=0.02]
//
//   # Render a span dataset (rdmajoin_cli --spans-json / rdmajoin_trace
//   # --spans-json): per-stage latency percentiles, top-k spans by duration
//   # and by credit wait, and the causal invariants (exit 1 on violation):
//   rdmajoin_analyze --spans=SPANS_fig05a.json [--top=K] [--check]
//
//   # Replay a captured trace (rdmajoin_whatif --capture) and decompose its
//   # makespan into compute / network / buffer-stall / barrier-wait time:
//   rdmajoin_analyze --trace=/tmp/join.trace --cluster=qdr --machines=8
//                    [--cores=8] [--scale=1024]
//   # ... optionally against the analytical model (paper workload sizes, in
//   # millions of tuples):
//   rdmajoin_analyze --trace=... --cluster=qdr --machines=8
//                    --inner=2048 --outer=2048
//
// Exit codes: 0 clean, 1 regression (or attribution invariant violation in
// --bench mode), 2 usage or input errors.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/presets.h"
#include "model/analytical_model.h"
#include "timing/attribution.h"
#include "timing/replay.h"
#include "timing/span_query.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "tools/flags.h"
#include "util/bench_json.h"
#include "util/json.h"
#include "util/table_printer.h"

namespace {

using namespace rdmajoin;

// The acceptance bar for the attribution subsystem: the critical-path
// components must reproduce the replayed makespan within 1%.
constexpr double kMakespanCheckTolerance = 0.01;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int RenderBench(const std::string& path) {
  auto doc = ReadBenchJsonFile(path);
  if (!doc.ok()) return Fail(doc.status());
  std::printf("bench %s (schema v%d, scale_up %.0f, seed %llu, %zu rows)\n\n",
              doc->bench.c_str(), doc->schema_version, doc->scale_up,
              static_cast<unsigned long long>(doc->seed), doc->rows.size());

  TablePrinter table("rows");
  table.SetHeader({"label", "measured_s", "paper_s", "model_s", "residual_s",
                   "viol", "status"});
  int invariant_failures = 0;
  for (const BenchJsonRow& row : doc->rows) {
    if (!row.ok) {
      table.AddRow({row.label, "-", "-", "-", "-", "-",
                    row.error.empty() ? "error" : row.error});
      continue;
    }
    table.AddRow({row.label,
                  row.has_measured ? TablePrinter::Num(row.measured_seconds, 3) : "-",
                  row.has_paper ? TablePrinter::Num(row.paper_seconds, 2) : "-",
                  row.has_model ? TablePrinter::Num(row.model_seconds, 3) : "-",
                  row.has_model ? TablePrinter::Num(row.residual_seconds, 3) : "-",
                  std::to_string(row.protocol_violations),
                  row.verified ? "ok" : "UNVERIFIED"});
  }
  table.Print();

  // Attribution summary: the critical-path decomposition each row carries,
  // and the invariant that its components reproduce the measured makespan.
  bool have_attribution = false;
  TablePrinter attr("critical-path attribution (seconds)");
  attr.SetHeader({"label", "compute", "network", "buffer_stall", "barrier",
                  "fault_rec", "sum", "measured", "check"});
  for (const BenchJsonRow& row : doc->rows) {
    const JsonValue* a = row.raw.Find("attribution");
    if (!row.ok || !row.has_measured || a == nullptr) continue;
    const JsonValue* totals = a->Find("totals");
    if (totals == nullptr) continue;
    have_attribution = true;
    const double compute = totals->NumberOr("compute_seconds", 0);
    const double network = totals->NumberOr("network_seconds", 0);
    const double stall = totals->NumberOr("buffer_stall_seconds", 0);
    const double barrier = totals->NumberOr("barrier_wait_seconds", 0);
    // Absent (0) in fault-free rows; carries retry/straggler time when a
    // fault schedule was active. Part of the makespan identity either way.
    const double fault = totals->NumberOr("fault_recovery_seconds", 0);
    const double sum = compute + network + stall + barrier + fault;
    const bool pass =
        std::fabs(sum - row.measured_seconds) <=
        kMakespanCheckTolerance * std::max(row.measured_seconds, 1e-12);
    if (!pass) ++invariant_failures;
    attr.AddRow({row.label, TablePrinter::Num(compute, 3),
                 TablePrinter::Num(network, 3), TablePrinter::Num(stall, 3),
                 TablePrinter::Num(barrier, 3), TablePrinter::Num(fault, 3),
                 TablePrinter::Num(sum, 3),
                 TablePrinter::Num(row.measured_seconds, 3),
                 pass ? "ok" : "MISMATCH"});
  }
  if (have_attribution) {
    std::printf("\n");
    attr.Print();
  }

  // Model residuals per phase, when rows carry them (fig09-style).
  bool have_model = false;
  TablePrinter model("model residuals per phase (measured - predicted, seconds)");
  model.SetHeader({"label", "histogram", "network_part", "local_part",
                   "build_probe", "total", "rel_error"});
  for (const BenchJsonRow& row : doc->rows) {
    const JsonValue* m = row.raw.Find("model");
    if (!row.ok || m == nullptr) continue;
    const JsonValue* rp = m->Find("residual_phases");
    if (rp == nullptr) continue;
    have_model = true;
    model.AddRow({row.label,
                  TablePrinter::Num(rp->NumberOr("histogram_seconds", 0), 3),
                  TablePrinter::Num(rp->NumberOr("network_partition_seconds", 0), 3),
                  TablePrinter::Num(rp->NumberOr("local_partition_seconds", 0), 3),
                  TablePrinter::Num(rp->NumberOr("build_probe_seconds", 0), 3),
                  TablePrinter::Num(m->NumberOr("residual_seconds", 0), 3),
                  TablePrinter::Num(100 * m->NumberOr("relative_error", 0), 1) + "%"});
  }
  if (have_model) {
    std::printf("\n");
    model.Print();
  }

  if (invariant_failures > 0) {
    std::printf("\n%d row(s) FAILED the attribution sum == makespan check "
                "(tolerance %.0f%%)\n",
                invariant_failures, 100 * kMakespanCheckTolerance);
    return 1;
  }
  return 0;
}

int RenderSpans(const std::string& path, bool check_only, size_t top_k) {
  auto dataset = ReadSpanDatasetFile(path);
  if (!dataset.ok()) return Fail(dataset.status());
  if (check_only) {
    const SpanInvariantReport inv = CheckSpanInvariants(*dataset);
    if (inv.ok()) {
      std::printf("spans %s: OK (%llu spans checked)\n", path.c_str(),
                  static_cast<unsigned long long>(inv.spans_checked));
      return 0;
    }
    std::printf("spans %s: %zu invariant violation(s):\n", path.c_str(),
                inv.violations.size());
    for (const std::string& v : inv.violations) {
      std::printf("  %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("spans %s\n", path.c_str());
  std::fputs(FormatSpanReport(*dataset, top_k).c_str(), stdout);
  return CheckSpanInvariants(*dataset).ok() ? 0 : 1;
}

int DiffBench(const std::string& old_path, const std::string& new_path,
              const BenchDiffOptions& options, bool report_improvements) {
  auto baseline = ReadBenchJsonFile(old_path);
  if (!baseline.ok()) return Fail(baseline.status());
  auto current = ReadBenchJsonFile(new_path);
  if (!current.ok()) return Fail(current.status());
  // The gate compares like for like; seeds may differ for rdmajoin_explain.
  if (baseline->seed != current->seed) {
    return Fail(Status::InvalidArgument(
        "seed mismatch: baseline used " + std::to_string(baseline->seed) +
        ", current used " + std::to_string(current->seed)));
  }
  auto diff = DiffBenchDocuments(*baseline, *current, options);
  if (!diff.ok()) return Fail(diff.status());
  std::printf("diff %s -> %s (bench %s, rel tolerance %.1f%%, abs %.3f s)\n",
              old_path.c_str(), new_path.c_str(), baseline->bench.c_str(),
              100 * options.relative_tolerance,
              options.absolute_tolerance_seconds);
  std::fputs(diff->Summary(report_improvements).c_str(), stdout);
  return diff->HasRegressions() ? 1 : 0;
}

int AnalyzeTrace(const std::string& trace_path, const std::string& cluster_name,
                 uint32_t machines, uint32_t cores, double scale, double inner_m,
                 double outer_m) {
  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  const ClusterConfig& cluster = *preset;
  auto trace = ReadTraceFile(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  if (trace->machines.size() != cluster.num_machines) {
    std::fprintf(stderr, "trace has %zu machines, cluster has %u\n",
                 trace->machines.size(), cluster.num_machines);
    return 2;
  }
  JoinConfig config;
  config.scale_up = scale;
  const ReplayReport report = ReplayTrace(cluster, config, *trace);

  TablePrinter table("replayed phase times on " + cluster.name);
  table.SetHeader({"histogram_s", "network_part_s", "local_part_s",
                   "build_probe_s", "total_s"});
  table.AddRow({TablePrinter::Num(report.phases.histogram_seconds, 3),
                TablePrinter::Num(report.phases.network_partition_seconds, 3),
                TablePrinter::Num(report.phases.local_partition_seconds, 3),
                TablePrinter::Num(report.phases.build_probe_seconds, 3),
                TablePrinter::Num(report.phases.TotalSeconds(), 3)});
  table.Print();
  std::fputs(FormatAttribution(report.attribution).c_str(), stdout);

  const PhaseAttribution cp = report.attribution.CriticalPathBreakdown();
  const double makespan = report.attribution.MakespanSeconds();
  const bool pass = std::fabs(cp.TotalSeconds() - makespan) <=
                    kMakespanCheckTolerance * std::max(makespan, 1e-12);
  std::printf("attribution sum %.6f s vs makespan %.6f s: %s\n",
              cp.TotalSeconds(), makespan, pass ? "ok" : "MISMATCH");

  if (inner_m > 0 && outer_m > 0) {
    const uint64_t inner_bytes = static_cast<uint64_t>(inner_m * 16e6);
    const uint64_t outer_bytes = static_cast<uint64_t>(outer_m * 16e6);
    ModelParams params = ParamsFromCluster(cluster, inner_bytes, outer_bytes);
    const ModelEstimate est = Estimate(params);
    PhaseTimes predicted;
    predicted.histogram_seconds = est.histogram_seconds;
    predicted.network_partition_seconds = est.network_partition_seconds;
    predicted.local_partition_seconds = est.local_partition_seconds;
    predicted.build_probe_seconds = est.build_probe_seconds;
    const ModelResidual r = ResidualAgainst(report.phases, predicted);
    TablePrinter residuals("model residuals (measured - predicted, seconds)");
    residuals.SetHeader({"histogram", "network_part", "local_part",
                         "build_probe", "total", "rel_error"});
    residuals.AddRow(
        {TablePrinter::Num(r.histogram_residual_seconds, 3),
         TablePrinter::Num(r.network_partition_residual_seconds, 3),
         TablePrinter::Num(r.local_partition_residual_seconds, 3),
         TablePrinter::Num(r.build_probe_residual_seconds, 3),
         TablePrinter::Num(r.total_residual_seconds, 3),
         TablePrinter::Num(100 * r.relative_error, 1) + "%"});
    residuals.Print();
    std::printf("model bound: %s\n", est.network_bound ? "network" : "CPU");
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_path, trace_path, spans_path, cluster_name = "qdr";
  std::vector<std::string> positional;
  bool diff_mode = false, check_only = false, report_improvements = false;
  uint32_t machines = 4, cores = 8;
  size_t top_k = 5;
  double scale = 1024, inner_m = 0, outer_m = 0;
  BenchDiffOptions diff_options;
  FlagTable flags(
      "usage:\n"
      "  rdmajoin_analyze --bench=FILE.json\n"
      "  rdmajoin_analyze --diff BASELINE.json CURRENT.json\n"
      "                   [--tolerance=REL] [--abs-tolerance=SECONDS]\n"
      "                   [--report-improvements]\n"
      "  rdmajoin_analyze --spans=FILE.json [--top=K] [--check]\n"
      "  rdmajoin_analyze --trace=FILE --cluster=NAME --machines=N\n"
      "                   [--cores=N] [--scale=N] [--inner=MTUPLES --outer=MTUPLES]",
      {StringFlag("--bench", "FILE", &bench_path,
                  "render a bench result file and check its attribution"),
       SwitchFlag("--diff", &diff_mode,
                  "regression-diff two bench files (exit 1 on a regression)"),
       DoubleFlag("--tolerance", &diff_options.relative_tolerance, 0, 1e3,
                  "--diff relative tolerance"),
       DoubleFlag("--abs-tolerance", &diff_options.absolute_tolerance_seconds, 0,
                  1e6, "--diff absolute tolerance, seconds"),
       SwitchFlag("--report-improvements", &report_improvements,
                  "--diff: also list rows that got faster"),
       StringFlag("--spans", "FILE", &spans_path,
                  "render a span dataset and check its invariants"),
       UintFlag("--top", &top_k, 1, 1000000,
                "length of the top-k span tables\n"
                "(by duration and by credit wait; default 5). On\n"
                "schema-v2 datasets each row is annotated with its\n"
                "flow's dominant binding constraint (bound=...)."),
       SwitchFlag("--check", &check_only, "--spans: only check the invariants"),
       StringFlag("--trace", "FILE", &trace_path,
                  "replay a captured trace and decompose its makespan"),
       ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset for --trace (default qdr)"),
       UintFlag("--machines", &machines, 1, kMaxMachines,
                "machines; must match the trace (default 4)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       DoubleFlag("--scale", &scale, 1, kMaxScale,
                  "simulation scale-up (default 1024)"),
       DoubleFlag("--inner", &inner_m, 0, kMaxMTuples,
                  "paper inner size, millions of tuples: with --outer,\n"
                  "also compare against the analytical model"),
       DoubleFlag("--outer", &outer_m, 0, kMaxMTuples,
                  "paper outer size, millions of tuples")},
      "exit status: 0 clean, 1 regression or invariant violation, 2 usage or\n"
      "input error");
  flags.Positional("FILE...", &positional, "--diff: BASELINE.json CURRENT.json");
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 2)) {
    return *exit_code;
  }

  if (diff_mode) {
    if (positional.size() != 2) {
      std::fprintf(stderr, "--diff needs exactly two files (baseline, current)\n");
      return 2;
    }
    return DiffBench(positional[0], positional[1], diff_options,
                     report_improvements);
  }
  if (!spans_path.empty()) return RenderSpans(spans_path, check_only, top_k);
  if (!bench_path.empty()) return RenderBench(bench_path);
  if (!trace_path.empty()) {
    return AnalyzeTrace(trace_path, cluster_name, machines, cores, scale,
                        inner_m, outer_m);
  }
  std::fputs(flags.Help().c_str(), stderr);
  return 2;
}
