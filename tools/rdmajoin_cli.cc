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

#include <cstdio>
#include <cstdlib>
#include <cstring>
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
#include "util/file.h"
#include "util/metrics.h"
#include "util/table_printer.h"
#include "workload/generator.h"

namespace {

using namespace rdmajoin;

struct CliOptions {
  std::string cluster = "qdr";
  uint32_t machines = 4;
  uint32_t cores = 8;
  std::string op = "hashjoin";  // hashjoin | sortmerge | aggregate
  double inner_mtuples = 2048;
  double outer_mtuples = 2048;
  uint32_t tuple_bytes = 16;
  double zipf = 0.0;
  double scale_up = 1024.0;
  std::string assignment = "rr";  // rr | skew
  std::string transport;          // "", channel | memory | tcp (override)
  bool non_interleaved = false;
  bool work_stealing = false;
  bool materialize = false;
  bool csv = false;
  bool with_model = false;
  uint64_t seed = 42;
  std::string trace_out;      // record the execution trace to this file
  std::string metrics_json;   // write the metrics snapshot to this file
  std::string chrome_trace;   // write a Chrome trace-event file
  std::string spans_json;     // write the causal span dataset to this file
  bool no_spans = false;      // disable the span flight recorder
  std::string faults;         // fault schedule: preset name or JSON file
  std::string fault_policy = "abort";  // abort | recover
};

void PrintUsage() {
  std::printf(
      "rdmajoin_cli -- distributed RDMA join/aggregation simulator\n\n"
      "  --cluster=qdr|fdr|qpi|ipoib   hardware preset (default qdr)\n"
      "  --machines=N                  machines / sockets (default 4)\n"
      "  --cores=N                     cores per machine (default 8)\n"
      "  --operator=hashjoin|sortmerge|aggregate (default hashjoin)\n"
      "  --inner=M --outer=M           relation sizes, millions of tuples\n"
      "  --width=16|32|64              tuple bytes (default 16)\n"
      "  --zipf=THETA                  outer-key skew (default uniform)\n"
      "  --scale=N                     simulation scale-up (default 1024)\n"
      "  --assignment=rr|skew          partition-machine assignment\n"
      "  --transport=channel|memory|tcp  override the preset's transport\n"
      "  --non-interleaved             block on every send (Fig. 5b variant)\n"
      "  --work-stealing               inter-machine task migration\n"
      "  --materialize                 write result tuples (Sec. 7)\n"
      "  --model                       also print the Section 5 estimate\n"
      "  --csv                         machine-readable output\n"
      "  --seed=N                      workload RNG seed\n"
      "  --trace-out=PATH              record the execution trace (join ops)\n"
      "  --metrics-json=PATH           write the metrics snapshot as JSON\n"
      "  --chrome-trace=PATH           write a Chrome trace-event file\n"
      "                                (open in chrome://tracing, join ops)\n"
      "  --spans-json=PATH             write the causal span dataset as JSON\n"
      "                                (inspect with rdmajoin_analyze --spans)\n"
      "  --no-spans                    disable the span flight recorder\n"
      "  --faults=PRESET|FILE          inject a deterministic fault schedule\n"
      "                                (presets: none, link-degrade, link-flap,\n"
      "                                straggler, qp-error, qp-drop,\n"
      "                                credit-shrink, chaos; or a schedule JSON\n"
      "                                file; seeded from --seed)\n"
      "  --fault-policy=abort|recover  reaction to runtime faults\n"
      "                                (default abort: clean error status)\n");
}

bool ParseCli(int argc, char** argv, CliOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len && arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    } else if (const char* v = value("--cluster")) {
      opt->cluster = v;
    } else if (const char* v = value("--machines")) {
      opt->machines = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--cores")) {
      opt->cores = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--operator")) {
      opt->op = v;
    } else if (const char* v = value("--inner")) {
      opt->inner_mtuples = std::atof(v);
    } else if (const char* v = value("--outer")) {
      opt->outer_mtuples = std::atof(v);
    } else if (const char* v = value("--width")) {
      opt->tuple_bytes = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--zipf")) {
      opt->zipf = std::atof(v);
    } else if (const char* v = value("--scale")) {
      opt->scale_up = std::atof(v);
    } else if (const char* v = value("--assignment")) {
      opt->assignment = v;
    } else if (const char* v = value("--transport")) {
      opt->transport = v;
    } else if (arg == "--non-interleaved") {
      opt->non_interleaved = true;
    } else if (arg == "--work-stealing") {
      opt->work_stealing = true;
    } else if (arg == "--materialize") {
      opt->materialize = true;
    } else if (arg == "--model") {
      opt->with_model = true;
    } else if (arg == "--csv") {
      opt->csv = true;
    } else if (const char* v = value("--seed")) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--trace-out")) {
      opt->trace_out = v;
    } else if (const char* v = value("--metrics-json")) {
      opt->metrics_json = v;
    } else if (const char* v = value("--chrome-trace")) {
      opt->chrome_trace = v;
    } else if (const char* v = value("--spans-json")) {
      opt->spans_json = v;
    } else if (arg == "--no-spans") {
      opt->no_spans = true;
    } else if (const char* v = value("--faults")) {
      opt->faults = v;
    } else if (const char* v = value("--fault-policy")) {
      opt->fault_policy = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseCli(argc, argv, &opt)) return 1;

  ClusterConfig cluster;
  if (opt.cluster == "qdr") {
    cluster = QdrCluster(opt.machines, opt.cores);
  } else if (opt.cluster == "fdr") {
    cluster = FdrCluster(opt.machines, opt.cores);
  } else if (opt.cluster == "qpi") {
    cluster = QpiServer(opt.machines, opt.cores);
  } else if (opt.cluster == "ipoib") {
    cluster = IpoibCluster(opt.machines, opt.cores);
  } else {
    std::fprintf(stderr, "unknown cluster preset: %s\n", opt.cluster.c_str());
    return 1;
  }
  if (opt.transport == "channel") {
    cluster.transport = TransportKind::kRdmaChannel;
  } else if (opt.transport == "memory") {
    cluster.transport = TransportKind::kRdmaMemory;
  } else if (opt.transport == "tcp") {
    cluster.transport = TransportKind::kTcp;
  } else if (!opt.transport.empty()) {
    std::fprintf(stderr, "unknown transport: %s\n", opt.transport.c_str());
    return 1;
  }
  if (opt.non_interleaved) cluster.interleave = InterleavePolicy::kNonInterleaved;

  WorkloadSpec spec;
  spec.inner_tuples = static_cast<uint64_t>(opt.inner_mtuples * 1e6 / opt.scale_up);
  spec.outer_tuples = static_cast<uint64_t>(opt.outer_mtuples * 1e6 / opt.scale_up);
  spec.tuple_bytes = opt.tuple_bytes;
  spec.zipf_theta = opt.zipf;
  spec.seed = opt.seed;
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  if (!workload.ok()) return Fail(workload.status());

  JoinConfig config;
  config.scale_up = opt.scale_up;
  config.assignment = opt.assignment == "skew" ? AssignmentPolicy::kSkewAware
                                               : AssignmentPolicy::kRoundRobin;
  config.enable_work_stealing = opt.work_stealing;
  config.materialize_results = opt.materialize;
  MetricsRegistry metrics;
  const bool want_metrics =
      !opt.metrics_json.empty() || !opt.chrome_trace.empty();
  if (want_metrics) config.metrics = &metrics;
  if (!opt.spans_json.empty() && opt.no_spans) {
    std::fprintf(stderr, "--spans-json and --no-spans are mutually exclusive\n");
    return 1;
  }
  config.enable_spans = !opt.no_spans;
  // An external recorder collects replay-time spans and execution-layer
  // verbs counts into one dataset.
  SpanRecorder span_recorder;
  if (!opt.spans_json.empty()) config.span_recorder = &span_recorder;

  // Deterministic fault injection: the schedule comes from a preset name or
  // a JSON file and is seeded by --seed, so a (schedule, seed) pair always
  // reproduces the same run bit for bit.
  FaultInjector injector;
  if (!opt.faults.empty()) {
    auto schedule = LoadFaultSchedule(opt.faults, opt.seed, opt.machines);
    if (!schedule.ok()) return Fail(schedule.status());
    injector = FaultInjector(std::move(*schedule));
    config.fault_injector = &injector;
  }
  if (opt.fault_policy == "recover") {
    config.fault_policy = FaultPolicy::kRecover;
  } else if (opt.fault_policy != "abort") {
    std::fprintf(stderr, "unknown fault policy: %s (abort|recover)\n",
                 opt.fault_policy.c_str());
    return 1;
  }

  PhaseTimes times;
  std::string verified = "n/a";
  uint64_t messages = 0;
  double wire_mb = 0;
  if (opt.op == "hashjoin" || opt.op == "sortmerge") {
    StatusOr<JoinRunResult> result =
        opt.op == "hashjoin"
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
    if (!opt.trace_out.empty()) {
      Status s = WriteTraceFile(result->trace, opt.trace_out);
      if (!s.ok()) return Fail(s);
    }
    if (!opt.chrome_trace.empty()) {
      ChromeTraceOptions trace_options;
      trace_options.label = cluster.name + ", " + opt.op;
      if (config.fault_injector != nullptr) {
        trace_options.fault_schedule = &injector.schedule();
      }
      Status s = WriteChromeTraceFile(opt.chrome_trace, result->replay, &metrics,
                                      trace_options);
      if (!s.ok()) return Fail(s);
    }
  } else if (opt.op == "aggregate") {
    auto result = DistributedAggregate(cluster, config).Run(workload->outer);
    if (!result.ok()) return Fail(result.status());
    times = result->times;
    messages = result->messages_sent;
    wire_mb = result->virtual_wire_bytes / 1e6;
    verified = result->stats.total_count == spec.outer_tuples ? "yes" : "NO";
  } else {
    std::fprintf(stderr, "unknown operator: %s\n", opt.op.c_str());
    return 1;
  }
  if (!opt.spans_json.empty()) {
    Status s = WriteSpanDatasetFile(opt.spans_json, span_recorder.Snapshot());
    if (!s.ok()) return Fail(s);
  }
  if (!opt.metrics_json.empty()) {
    if (!WriteStringToFile(opt.metrics_json, metrics.SnapshotJson()).ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.metrics_json.c_str());
      return 1;
    }
  }

  TablePrinter table(opt.csv ? "" : cluster.name + ", " + opt.op);
  table.SetHeader({"histogram_s", "network_part_s", "local_part_s", "build_probe_s",
                   "total_s", "wire_MB", "messages", "verified"});
  table.AddRow({TablePrinter::Num(times.histogram_seconds, 3),
                TablePrinter::Num(times.network_partition_seconds, 3),
                TablePrinter::Num(times.local_partition_seconds, 3),
                TablePrinter::Num(times.build_probe_seconds, 3),
                TablePrinter::Num(times.TotalSeconds(), 3),
                TablePrinter::Num(wire_mb, 1),
                TablePrinter::Int(static_cast<long long>(messages)), verified});
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }

  if (opt.with_model && opt.op == "hashjoin") {
    ModelParams params = ParamsFromCluster(
        cluster, static_cast<uint64_t>(opt.inner_mtuples * 1e6 * opt.tuple_bytes),
        static_cast<uint64_t>(opt.outer_mtuples * 1e6 * opt.tuple_bytes));
    const ModelEstimate est = Estimate(params);
    std::printf("model estimate (Sec. 5): total %.3f s, network pass %.3f s, %s-bound\n",
                est.TotalSeconds(), est.network_partition_seconds,
                est.network_bound ? "network" : "CPU");
  }
  return 0;
}
