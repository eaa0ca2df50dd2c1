// Command-line driver: run any operator on any cluster preset and workload
// without writing code.
//
//   rdmajoin_cli --cluster=qdr --machines=8 --inner=2048 --outer=2048
//   rdmajoin_cli --cluster=fdr --machines=4 --operator=sortmerge --csv
//   rdmajoin_cli --cluster=qdr --machines=8 --zipf=1.2 --assignment=skew
//                --work-stealing
//
// Sizes are in millions of tuples (paper units); times are virtual
// full-scale seconds. Run with --help for all flags.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "model/analytical_model.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"
#include "timing/chrome_trace.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "tools/flags.h"
#include "util/file.h"
#include "util/metrics.h"
#include "util/table_printer.h"
#include "workload/generator.h"

namespace {

using namespace rdmajoin;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cluster_name = "qdr";
  uint32_t machines = 4;
  uint32_t cores = 8;
  std::string op = "hashjoin";
  double inner_mtuples = 2048;
  double outer_mtuples = 2048;
  std::optional<TransportKind> transport;  // unset: the preset's
  bool non_interleaved = false;
  bool csv = false;
  bool with_model = false;
  bool no_spans = false;
  std::string trace_out;
  std::string metrics_json;
  std::string chrome_trace;
  std::string spans_json;
  std::string faults;
  WorkloadSpec spec;  // --width, --zipf, --seed
  JoinConfig config;  // --scale, --assignment, --work-stealing, ...
  config.scale_up = 1024.0;
  FlagTable flags(
      "rdmajoin_cli -- distributed RDMA join/aggregation simulator",
      {ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset (default qdr)"),
       UintFlag("--machines", &machines, 1, kMaxMachines,
                "machines / sockets (default 4)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       ChoiceFlag("--operator", &op, {"hashjoin", "sortmerge", "aggregate"},
                  "operator to run (default hashjoin)"),
       DoubleFlag("--inner", &inner_mtuples, kMinMTuples, kMaxMTuples,
                  "inner relation size, millions of tuples (default 2048)"),
       DoubleFlag("--outer", &outer_mtuples, kMinMTuples, kMaxMTuples,
                  "outer relation size, millions of tuples (default 2048)"),
       UintFlag("--width", &spec.tuple_bytes, 16, 1024,
                "tuple bytes, a multiple of 8 (default 16)"),
       DoubleFlag("--zipf", &spec.zipf_theta, 0, kMaxZipf,
                  "outer-key skew (default uniform)"),
       DoubleFlag("--scale", &config.scale_up, 1, kMaxScale,
                  "simulation scale-up (default 1024)"),
       EnumFlag("--assignment", &config.assignment,
                {{"rr", AssignmentPolicy::kRoundRobin},
                 {"skew", AssignmentPolicy::kSkewAware}},
                "partition-machine assignment (default rr)"),
       EnumFlag("--transport", &transport,
                {{"channel", TransportKind::kRdmaChannel},
                 {"memory", TransportKind::kRdmaMemory},
                 {"tcp", TransportKind::kTcp}},
                "override the preset's transport"),
       SwitchFlag("--non-interleaved", &non_interleaved,
                  "block on every send (Fig. 5b variant)"),
       SwitchFlag("--work-stealing", &config.enable_work_stealing,
                  "inter-machine task migration"),
       SwitchFlag("--materialize", &config.materialize_results,
                  "write result tuples (Sec. 7)"),
       SwitchFlag("--model", &with_model, "also print the Section 5 estimate"),
       SwitchFlag("--csv", &csv, "machine-readable output"),
       UintFlag("--seed", &spec.seed, 0, UINT64_MAX,
                "workload RNG seed (default 42)"),
       StringFlag("--trace-out", "PATH", &trace_out,
                  "record the execution trace (join ops)"),
       StringFlag("--metrics-json", "PATH", &metrics_json,
                  "write the metrics snapshot as JSON"),
       StringFlag("--chrome-trace", "PATH", &chrome_trace,
                  "write a Chrome trace-event file\n"
                  "(open in chrome://tracing, join ops)"),
       StringFlag("--spans-json", "PATH", &spans_json,
                  "write the causal span dataset as JSON\n"
                  "(inspect with rdmajoin_analyze --spans)"),
       SwitchFlag("--no-spans", &no_spans, "disable the span flight recorder"),
       StringFlag("--faults", "PRESET|FILE", &faults,
                  "inject a deterministic fault schedule\n"
                  "(presets: none, link-degrade, link-flap,\n"
                  "straggler, qp-error, qp-drop,\n"
                  "credit-shrink, chaos; or a schedule JSON\n"
                  "file; seeded from --seed)"),
       EnumFlag("--fault-policy", &config.fault_policy,
                {{"abort", FaultPolicy::kAbort},
                 {"recover", FaultPolicy::kRecover}},
                "reaction to runtime faults\n"
                "(default abort: clean error status)")});
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 1)) {
    return *exit_code;
  }

  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  ClusterConfig cluster = std::move(*preset);
  if (transport) cluster.transport = *transport;
  if (non_interleaved) cluster.interleave = InterleavePolicy::kNonInterleaved;

  spec.inner_tuples = static_cast<uint64_t>(inner_mtuples * 1e6 / config.scale_up);
  spec.outer_tuples = static_cast<uint64_t>(outer_mtuples * 1e6 / config.scale_up);
  if (Status fits = CheckWorkloadFitsMemory(spec, cluster.num_machines,
                                            config.scale_up,
                                            cluster.memory_per_machine_bytes);
      !fits.ok()) {
    return Fail(fits);
  }
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  if (!workload.ok()) return Fail(workload.status());

  MetricsRegistry metrics;
  if (!metrics_json.empty() || !chrome_trace.empty()) config.metrics = &metrics;
  if (!spans_json.empty() && no_spans) {
    std::fprintf(stderr, "--spans-json and --no-spans are mutually exclusive\n");
    return 1;
  }
  config.enable_spans = !no_spans;
  // An external recorder collects replay-time spans and execution-layer
  // verbs counts into one dataset.
  SpanRecorder span_recorder;
  if (!spans_json.empty()) config.span_recorder = &span_recorder;

  // Deterministic fault injection: the schedule comes from a preset name or
  // a JSON file and is seeded by --seed, so a (schedule, seed) pair always
  // reproduces the same run bit for bit.
  FaultInjector injector;
  if (!faults.empty()) {
    auto schedule = LoadFaultSchedule(faults, spec.seed, machines);
    if (!schedule.ok()) return Fail(schedule.status());
    injector = FaultInjector(std::move(*schedule));
    config.fault_injector = &injector;
  }

  PhaseTimes times;
  std::string verified = "n/a";
  uint64_t messages = 0;
  double wire_mb = 0;
  if (op == "hashjoin" || op == "sortmerge") {
    StatusOr<JoinRunResult> result =
        op == "hashjoin"
            ? DistributedJoin(cluster, config).Run(workload->inner, workload->outer)
            : DistributedSortMergeJoin(cluster, config)
                  .Run(workload->inner, workload->outer);
    if (!result.ok()) return Fail(result.status());
    times = result->times;
    messages = result->net.messages_sent;
    wire_mb = result->net.virtual_wire_bytes / 1e6;
    verified = result->stats.matches == workload->truth.expected_matches &&
                       result->stats.key_sum == workload->truth.expected_key_sum
                   ? "yes"
                   : "NO";
    if (!trace_out.empty()) {
      Status s = WriteTraceFile(result->trace, trace_out);
      if (!s.ok()) return Fail(s);
    }
    if (!chrome_trace.empty()) {
      ChromeTraceOptions trace_options;
      trace_options.label = cluster.name + ", " + op;
      if (config.fault_injector != nullptr) {
        trace_options.fault_schedule = &injector.schedule();
      }
      Status s = WriteChromeTraceFile(chrome_trace, result->replay, &metrics,
                                      trace_options);
      if (!s.ok()) return Fail(s);
    }
  } else {  // aggregate
    auto result = DistributedAggregate(cluster, config).Run(workload->outer);
    if (!result.ok()) return Fail(result.status());
    times = result->times;
    messages = result->net.messages_sent;
    wire_mb = result->net.virtual_wire_bytes / 1e6;
    verified = result->stats.total_count == spec.outer_tuples ? "yes" : "NO";
  }
  if (!spans_json.empty()) {
    Status s = WriteSpanDatasetFile(spans_json, span_recorder.Snapshot());
    if (!s.ok()) return Fail(s);
  }
  if (!metrics_json.empty()) {
    if (!WriteStringToFile(metrics_json, metrics.SnapshotJson()).ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_json.c_str());
      return 1;
    }
  }

  TablePrinter table(csv ? "" : cluster.name + ", " + op);
  table.SetHeader({"histogram_s", "network_part_s", "local_part_s", "build_probe_s",
                   "total_s", "wire_MB", "messages", "verified"});
  table.AddRow({TablePrinter::Num(times.histogram_seconds, 3),
                TablePrinter::Num(times.network_partition_seconds, 3),
                TablePrinter::Num(times.local_partition_seconds, 3),
                TablePrinter::Num(times.build_probe_seconds, 3),
                TablePrinter::Num(times.TotalSeconds(), 3),
                TablePrinter::Num(wire_mb, 1),
                TablePrinter::Int(static_cast<long long>(messages)), verified});
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }

  if (with_model && op == "hashjoin") {
    ModelParams params = ParamsFromCluster(
        cluster, static_cast<uint64_t>(inner_mtuples * 1e6 * spec.tuple_bytes),
        static_cast<uint64_t>(outer_mtuples * 1e6 * spec.tuple_bytes));
    const ModelEstimate est = Estimate(params);
    std::printf("model estimate (Sec. 5): total %.3f s, network pass %.3f s, %s-bound\n",
                est.TotalSeconds(), est.network_partition_seconds,
                est.network_bound ? "network" : "CPU");
  }
  return 0;
}
