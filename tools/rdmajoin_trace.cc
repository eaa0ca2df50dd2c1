// Converts a recorded execution trace into a Chrome trace-event file: the
// trace is replayed against a cluster model with metrics enabled, and the
// resulting per-machine phase timeline plus per-host fabric utilization is
// written as JSON loadable in chrome://tracing or https://ui.perfetto.dev.
//
//   # Record a trace (either tool works):
//   rdmajoin_cli --machines=4 --inner=64 --outer=64 --trace-out=/tmp/j.trace
//   # Convert it:
//   rdmajoin_trace --trace=/tmp/j.trace --out=/tmp/j.chrome.json
//   # Optionally also dump the metrics snapshot:
//   rdmajoin_trace --trace=/tmp/j.trace --out=/tmp/j.chrome.json
//                  --metrics-json=/tmp/j.metrics.json
//
// The machine count is taken from the trace; the cluster preset supplies the
// hardware model the replay runs under.

#include <cstdint>
#include <cstdio>
#include <string>

#include "cluster/presets.h"
#include "join/join_config.h"
#include "timing/chrome_trace.h"
#include "timing/replay.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "tools/flags.h"
#include "util/file.h"
#include "util/metrics.h"

namespace {

using namespace rdmajoin;

/// Prints `status`; returns `code`: 2 for bad trace input, 1 otherwise.
int Fail(const Status& status, int code = 1) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, out_path, metrics_path, spans_path,
      cluster_name = "qdr";
  uint32_t cores = 8;
  double bucket_ms = 10.0;
  FlagTable flags(
      "rdmajoin_trace -- render a recorded join trace as a Chrome trace",
      {StringFlag("--trace", "PATH", &trace_path,
                  "input trace (rdmajoin_cli --trace-out,\n"
                  "rdmajoin_whatif --capture)"),
       StringFlag("--out", "PATH", &out_path,
                  "output Chrome trace-event JSON file"),
       StringFlag("--metrics-json", "PATH", &metrics_path,
                  "also write the metrics snapshot as JSON"),
       StringFlag("--spans-json", "PATH", &spans_path,
                  "also write the causal span dataset as JSON\n"
                  "(inspect with rdmajoin_analyze --spans)"),
       ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset for the replay (default qdr)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       DoubleFlag("--bucket-ms", &bucket_ms, 1e-3, 1e6,
                  "utilization bucket width in milliseconds\n(default 10)")});
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 1)) {
    return *exit_code;
  }
  if (trace_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "usage: rdmajoin_trace --trace=FILE --out=FILE\n");
    return 1;
  }

  auto trace = ReadTraceFile(trace_path);
  if (!trace.ok()) return Fail(trace.status(), 2);
  const uint32_t machines = static_cast<uint32_t>(trace->machines.size());
  auto cluster = PresetCluster(cluster_name, machines, cores);
  if (!cluster.ok()) return Fail(cluster.status());

  JoinConfig config;
  config.scale_up = trace->scale_up;

  MetricsRegistry metrics;
  ReplayOptions options;
  options.metrics = &metrics;
  options.utilization_bucket_seconds = bucket_ms / 1e3;
  const ReplayReport report = ReplayTrace(*cluster, config, *trace, options);

  ChromeTraceOptions trace_options;
  trace_options.label = cluster->name + ", " + trace_path;
  Status s = WriteChromeTraceFile(out_path, report, &metrics, trace_options);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s (%u machines, %.3f virtual s)\n", out_path.c_str(),
              machines, report.phases.TotalSeconds());

  if (!spans_path.empty()) {
    if (report.spans == nullptr) {
      return Fail(Status::Internal("replay produced no span recorder"));
    }
    Status ws = WriteSpanDatasetFile(spans_path, report.spans->Snapshot());
    if (!ws.ok()) return Fail(ws);
    std::printf("wrote %s\n", spans_path.c_str());
  }
  if (!metrics_path.empty()) {
    Status ws = WriteStringToFile(metrics_path, metrics.SnapshotJson());
    if (!ws.ok()) return Fail(ws);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}
