// Run forensics over the recorders PRs 2-4 built: utilization / idle-window
// analysis of one run, differential "why is B slower than A" analysis of two
// runs, and the longitudinal perf ledger.
//
//   # Where could a co-scheduler put work? (idle windows, occupancy)
//   rdmajoin_cli --machines=4 --inner=64 --outer=64 --trace-out=/tmp/j.trace
//   rdmajoin_explain --utilization --trace=/tmp/j.trace --check
//
//   # The same question for a SCHEDULED multi-query run (src/sched/): the
//   # per-query latency/queue/slowdown table, each query's attribution
//   # decomposition, and the idle windows the scheduler left unfilled,
//   # labeled with the admitted query that could have filled them.
//   ext_traffic --scale=64 --sched-json=/tmp/sched.json
//   rdmajoin_explain --utilization --sched=/tmp/sched.json --check
//
//   # Who was the bottleneck, when? (constraint timelines, incast, top flows)
//   rdmajoin_explain --congestion --trace=/tmp/j.trace --check
//
//   # Why did run B slow down?
//   rdmajoin_explain --diff BENCH_old.json BENCH_new.json
//       --spans-a=SPANS_old.json --spans-b=SPANS_new.json
//
//   # Trends + drift over committed history:
//   rdmajoin_explain --ledger=bench/ledger/ledger.jsonl
//   rdmajoin_explain --ledger-append=bench/ledger/ledger.jsonl
//       --bench-json=BENCH_fig07a_phase_breakdown.json --commit=$GITHUB_SHA
//
// Exit codes (same contract as rdmajoin_analyze):
//   0  clean
//   1  --diff: a row regressed, improved, went missing or was added
//      (rdmajoin_analyze --diff fails only on a regressed or missing row);
//      identity violation; or ledger drift
//   2  usage error or unreadable/malformed input

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/presets.h"
#include "join/join_config.h"
#include "sched/scheduler.h"
#include "timing/replay.h"
#include "timing/run_diff.h"
#include "timing/span_query.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "timing/utilization.h"
#include "tools/flags.h"
#include "util/file.h"
#include "util/json.h"
#include "util/ledger.h"

namespace {

using namespace rdmajoin;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

bool WriteFileOrWarn(const std::string& path, const std::string& text) {
  const Status st = WriteStringToFile(path, text);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int RunUtilization(const std::string& trace_path, const std::string& cluster_name,
                   uint32_t cores, size_t buckets, bool check, size_t top_k,
                   const std::string& json_out) {
  auto trace = ReadTraceFile(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  const uint32_t machines = static_cast<uint32_t>(trace->machines.size());

  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  const ClusterConfig& cluster = *preset;

  JoinConfig config;
  config.scale_up = trace->scale_up;
  const ReplayReport replay = ReplayTrace(cluster, config, *trace);

  UtilizationOptions options;
  options.timeline_buckets = buckets;
  const UtilizationReport report = ComputeUtilization(replay, nullptr, options);
  std::fputs(FormatUtilization(report, top_k).c_str(), stdout);
  if (!json_out.empty() && !WriteFileOrWarn(json_out, UtilizationToJson(report))) {
    return 2;
  }
  if (check) {
    const UtilizationCheck verdict = CheckUtilization(report, replay.attribution);
    if (!verdict.ok()) {
      for (const std::string& v : verdict.violations) {
        std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
      }
      return 1;
    }
    std::printf("check: idle-window totals reproduce the attribution (%zu "
                "machines, 1e-9)\n",
                report.machines.size());
  }
  return 0;
}

// The scheduled-run flavor of --utilization: per-query outcome table,
// attribution decomposition (including the sched_queue bucket src/sched/
// adds to the taxonomy), and the idle windows the policy left unfilled,
// each labeled with the admitted query that could have moved into it.
int RunSchedUtilization(const std::string& sched_path, bool check,
                        size_t top_k, const std::string& json_out) {
  auto text = ReadFileToString(sched_path);
  if (!text.ok()) return Fail(text.status());
  auto report = ParseScheduleReport(*text);
  if (!report.ok()) return Fail(report.status());

  std::fputs(FormatScheduleReport(*report).c_str(), stdout);

  std::printf("\nper-query attribution (seconds; latency = queue + buckets)\n");
  for (const QueryOutcome& q : report->queries) {
    if (q.rejected) continue;
    PhaseAttribution total;
    for (const PhaseAttribution& a : q.attribution) total += a;
    std::printf(
        "  q%-3u %-20s queue=%7.4f compute=%7.4f network=%7.4f stall=%7.4f "
        "barrier=%7.4f fault=%7.4f\n",
        q.id, q.label.c_str(), q.sched_queue_seconds, total.compute_seconds,
        total.network_seconds, total.buffer_stall_seconds,
        total.barrier_wait_seconds, total.fault_recovery_seconds);
  }

  // Longest idle windows first: these are the gaps a better policy would
  // fill (PR 8 ranked co-scheduling candidates; here the scheduler reports
  // its own leftovers).
  std::vector<const SchedIdleWindow*> windows;
  for (const SchedIdleWindow& w : report->idle_windows) windows.push_back(&w);
  std::stable_sort(windows.begin(), windows.end(),
                   [](const SchedIdleWindow* a, const SchedIdleWindow* b) {
                     return (a->end_seconds - a->begin_seconds) >
                            (b->end_seconds - b->begin_seconds);
                   });
  if (windows.size() > top_k) windows.resize(top_k);
  std::printf("\ntop idle windows (unfilled gaps)\n");
  if (windows.empty()) {
    std::printf("  none -- every resource was busy whenever work existed\n");
  }
  for (const SchedIdleWindow* w : windows) {
    std::string filler = "none";
    if (w->candidate_query >= 0) {
      for (const QueryOutcome& q : report->queries) {
        if (q.id == static_cast<uint32_t>(w->candidate_query)) {
          filler = "q" + std::to_string(q.id) + " (" + q.label + ")";
          break;
        }
      }
    }
    std::printf("  %-7s [%8.4f, %8.4f] %7.4fs  filler: %s\n",
                w->network ? "network" : "cores", w->begin_seconds,
                w->end_seconds, w->end_seconds - w->begin_seconds,
                filler.c_str());
  }

  if (!json_out.empty() &&
      !WriteFileOrWarn(json_out, ScheduleReportToJson(*report))) {
    return 2;
  }
  if (check) {
    if (Status s = CheckScheduleInvariants(*report); !s.ok()) {
      std::fprintf(stderr, "VIOLATION: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf(
        "\ncheck: every completed query's buckets tile its latency (%zu "
        "queries, 1e-9)\n",
        report->queries.size());
  }
  return 0;
}

int RunCongestion(const std::string& trace_path,
                  const std::string& cluster_name, uint32_t cores,
                  size_t buckets, bool check, size_t top_k,
                  const std::string& json_out) {
  auto trace = ReadTraceFile(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  const uint32_t machines = static_cast<uint32_t>(trace->machines.size());

  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  const ClusterConfig& cluster = *preset;

  JoinConfig config;
  config.scale_up = trace->scale_up;
  const ReplayReport replay = ReplayTrace(cluster, config, *trace);
  if (replay.spans == nullptr) {
    return Fail(Status::Internal("replay produced no span recorder"));
  }
  const SpanDataset data = replay.spans->Snapshot();

  CongestionOptions options;
  options.timeline_buckets = buckets;
  const CongestionReport report = ComputeCongestion(data, options);
  std::fputs(FormatCongestionReport(data, report, top_k).c_str(), stdout);
  if (!json_out.empty() &&
      !WriteFileOrWarn(json_out, CongestionReportToJson(report))) {
    return 2;
  }
  if (check) {
    // The exact fabric configuration the replay's network pass ran with
    // (timing/replay.cc): the cluster preset resized to the trace, with the
    // TCP transport's flat byte rate overriding the RDMA port model.
    FabricConfig fc = cluster.fabric;
    fc.num_hosts = machines;
    if (cluster.transport == TransportKind::kTcp) {
      fc.egress_bytes_per_sec = cluster.tcp.bytes_per_sec;
      fc.ingress_bytes_per_sec = cluster.tcp.bytes_per_sec;
      fc.message_rate_per_host = 0.0;
    }
    const SpanInvariantReport verdict =
        CheckConstraintInvariants(data, ConstraintCheckContextFromFabric(fc));
    if (!verdict.ok()) {
      for (const std::string& v : verdict.violations) {
        std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
      }
      return 1;
    }
    std::printf(
        "check: every binding-constraint label is tight (%llu segments, "
        "kRateEps)\n",
        static_cast<unsigned long long>(verdict.spans_checked));
  }
  return 0;
}

int RunDiff(const std::string& a_path, const std::string& b_path,
            const std::string& spans_a, const std::string& spans_b,
            const std::string& metrics_a, const std::string& metrics_b,
            const BenchDiffOptions& options, size_t top_k,
            bool report_improvements, const std::string& json_out) {
  auto a = LoadRunArtifacts(a_path, spans_a, metrics_a);
  if (!a.ok()) return Fail(a.status());
  auto b = LoadRunArtifacts(b_path, spans_b, metrics_b);
  if (!b.ok()) return Fail(b.status());
  auto report = DiffRuns(*a, *b, options, top_k);
  if (!report.ok()) return Fail(report.status());
  std::fputs(FormatRunDiff(*report, report_improvements).c_str(), stdout);
  if (!json_out.empty() && !WriteFileOrWarn(json_out, RunDiffToJson(*report))) {
    return 2;
  }
  return report->HasDivergence() ? 1 : 0;
}

int RunLedger(const std::string& path, const std::string& bench_filter,
              const BenchDiffOptions& options, const std::string& json_out) {
  auto ledger = ReadLedgerFile(path);
  if (!ledger.ok()) return Fail(ledger.status());
  std::fputs(FormatLedger(*ledger, bench_filter, options).c_str(), stdout);
  if (!json_out.empty()) {
    std::string out;
    JsonWriter w(&out);
    w.BeginArray();
    for (const LedgerEntry& entry : *ledger) w.Raw(LedgerEntryToJson(entry));
    w.EndArray();
    if (!WriteFileOrWarn(json_out, out)) return 2;
  }
  bool drifted = false;
  for (const LedgerDrift& d : DetectLedgerDrift(*ledger, options)) {
    if (d.drift) drifted = true;
  }
  return drifted ? 1 : 0;
}

int RunLedgerAppend(const std::string& path, const std::string& bench_json,
                    const std::string& spans_path, const std::string& commit) {
  if (bench_json.empty()) {
    std::fprintf(stderr, "--ledger-append requires --bench-json=PATH\n");
    return 2;
  }
  auto bench = ReadBenchJsonFile(bench_json);
  if (!bench.ok()) return Fail(bench.status());
  LedgerEntry entry = LedgerEntryFromBench(*bench, commit);
  if (!spans_path.empty()) {
    // Record the run's dominant binding constraint so --ledger trends show
    // compute- vs ingress-bound flips across commits, not just timings.
    auto spans = ReadSpanDatasetFile(spans_path);
    if (!spans.ok()) return Fail(spans.status());
    const RateConstraint bound =
        DatasetConstraintBreakdown(*spans).dominant();
    if (bound != RateConstraint::kNone) {
      entry.phase_constraints.push_back(
          LedgerPhaseConstraint{"network_partition", RateConstraintName(bound)});
    }
  }
  Status s = AppendLedgerEntry(path, entry);
  if (!s.ok()) return Fail(s);
  std::printf("appended %s (%zu rows, %.6f s total) to %s\n",
              entry.bench.c_str(), entry.rows.size(), entry.total_seconds,
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool utilization = false, congestion = false, check = false,
       report_improvements = false;
  std::string trace_path, sched_path, cluster_name = "qdr", json_out;
  std::string spans_a, spans_b, metrics_a, metrics_b;
  std::string ledger_path, ledger_append_path, bench_json, bench_filter, commit;
  std::string ledger_spans;
  uint32_t cores = 8;
  size_t buckets = 48, top_k = 10;
  BenchDiffOptions diff_options;
  bool diff_mode = false;
  std::vector<std::string> diff_paths;
  FlagTable flags(
      "rdmajoin_explain -- run forensics: utilization, run diff, perf ledger\n\n"
      "utilization (one run): --utilization with --trace or --sched\n"
      "congestion (one run -- binding-constraint forensics): --congestion with\n"
      "  --trace: per-host congestion timelines, incast episodes and the ranked\n"
      "  \"why is this flow slow\" report\n"
      "run diff (two runs): --diff A.json B.json\n"
      "perf ledger (bench/ledger/ledger.jsonl): --ledger or --ledger-append",
      {SwitchFlag("--utilization", &utilization,
                  "analyze a recorded trace's replay"),
       SwitchFlag("--congestion", &congestion,
                  "per-host congestion timelines and flow forensics"),
       StringFlag("--trace", "PATH", &trace_path,
                  "input trace (rdmajoin_cli --trace-out)"),
       StringFlag("--sched", "PATH", &sched_path,
                  "instead of a trace: a scheduled multi-query\n"
                  "run (ext_traffic / ext_concurrent_queries\n"
                  "--sched-json) -- per-query latency, queue\n"
                  "wait and attribution, plus the idle windows\n"
                  "the policy left unfilled, labeled with the\n"
                  "query that could have filled them"),
       ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset for the replay (default qdr)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       UintFlag("--buckets", &buckets, 1, 100000,
                "occupancy timeline buckets (default 48)"),
       SwitchFlag("--check", &check,
                  "--utilization: verify the idle-window totals\n"
                  "reproduce the attribution (with --sched, that the\n"
                  "per-query buckets tile each latency to 1e-9);\n"
                  "--congestion: verify every recorded constraint\n"
                  "label is tight against the replay's fabric\n"
                  "config (exit 1 on violation)"),
       SwitchFlag("--diff", &diff_mode, "diff the bench JSON of two runs"),
       StringFlag("--spans-a", "PATH", &spans_a, "span dataset of run A (optional)"),
       StringFlag("--spans-b", "PATH", &spans_b, "span dataset of run B (optional)"),
       StringFlag("--metrics-a", "PATH", &metrics_a,
                  "metrics snapshot of run A (optional)"),
       StringFlag("--metrics-b", "PATH", &metrics_b,
                  "metrics snapshot of run B (optional)"),
       DoubleFlag("--tolerance", &diff_options.relative_tolerance, 0, 1e3,
                  "relative divergence margin (default 0.05)"),
       DoubleFlag("--abs-tolerance", &diff_options.absolute_tolerance_seconds, 0,
                  1e6, "absolute margin, seconds (default 0.02)"),
       SwitchFlag("--report-improvements", &report_improvements,
                  "drill into rows that got faster too"),
       StringFlag("--ledger", "PATH", &ledger_path,
                  "render trends + drift (exit 1 on drift)"),
       StringFlag("--ledger-append", "PATH", &ledger_append_path,
                  "append one entry from --bench-json"),
       StringFlag("--bench-json", "PATH", &bench_json, "bench JSON to summarize"),
       StringFlag("--spans", "PATH", &ledger_spans,
                  "span dataset of the same run: records its\n"
                  "dominant binding constraint so --ledger\n"
                  "trends show compute- vs ingress-bound flips"),
       StringFlag("--bench", "NAME", &bench_filter,
                  "limit --ledger rendering to one bench"),
       StringFlag("--commit", "ID", &commit, "commit id recorded in the entry"),
       UintFlag("--top", &top_k, 1, 1000000, "top-k list length (default 10)"),
       StringFlag("--json-out", "PATH", &json_out,
                  "also write the machine-readable report")},
      "exit status: 0 clean; 1 divergence beyond tolerance, identity\n"
      "violation or ledger drift; 2 usage error or unreadable input");
  flags.Positional("A.json B.json", &diff_paths, "--diff: the two bench files");
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 2)) {
    return *exit_code;
  }
  if (diff_paths.size() > (diff_mode ? 2u : 0u)) {
    std::fprintf(stderr, "error: unexpected argument: '%s'; try --help\n",
                 diff_paths.back().c_str());
    return 2;
  }

  if (utilization) {
    if (!sched_path.empty()) {
      return RunSchedUtilization(sched_path, check, top_k, json_out);
    }
    if (trace_path.empty()) {
      std::fprintf(stderr, "--utilization requires --trace=FILE or --sched=FILE\n");
      return 2;
    }
    return RunUtilization(trace_path, cluster_name, cores, buckets, check,
                          top_k, json_out);
  }
  if (congestion) {
    if (trace_path.empty()) {
      std::fprintf(stderr, "--congestion requires --trace=FILE\n");
      return 2;
    }
    return RunCongestion(trace_path, cluster_name, cores, buckets, check,
                         top_k, json_out);
  }
  if (diff_mode) {
    if (diff_paths.size() != 2) {
      std::fprintf(stderr, "--diff requires two bench JSON paths\n");
      return 2;
    }
    return RunDiff(diff_paths[0], diff_paths[1], spans_a, spans_b, metrics_a,
                   metrics_b, diff_options, top_k, report_improvements,
                   json_out);
  }
  if (!ledger_append_path.empty()) {
    return RunLedgerAppend(ledger_append_path, bench_json, ledger_spans, commit);
  }
  if (!ledger_path.empty()) {
    return RunLedger(ledger_path, bench_filter, diff_options, json_out);
  }
  std::fputs(flags.Help().c_str(), stdout);
  return 2;
}
