// What-if replay: execution traces are hardware-independent (they record
// what the algorithm did -- compute volumes, send sequences, task lists --
// not how long it took), so a trace captured once can be replayed under
// modified hardware assumptions without re-running the join.
//
//   # Capture a trace:
//   rdmajoin_whatif --capture=/tmp/join.trace --cluster=qdr --machines=8
//   # Replay it under a what-if network:
//   rdmajoin_whatif --trace=/tmp/join.trace --cluster=qdr --machines=8
//                   --bandwidth-gbps=25          # HDR, as Section 7 projects
//   rdmajoin_whatif --trace=/tmp/join.trace --cluster=qdr --machines=8
//                   --non-interleaved
//
// The machine count of the replay cluster must match the trace.

#include <cstdint>
#include <cstdio>
#include <string>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "timing/replay.h"
#include "timing/trace_io.h"
#include "tools/flags.h"
#include "util/table_printer.h"
#include "workload/generator.h"

namespace {

using namespace rdmajoin;

/// Prints `status`; returns `code`: 2 for bad trace input, 1 otherwise.
int Fail(const Status& status, int code = 1) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string capture_path, trace_path, cluster_name = "qdr";
  uint32_t machines = 4, cores = 8;
  double inner_m = 2048, outer_m = 2048, bandwidth_gbps = 0, congestion_mbps = 0;
  bool non_interleaved = false;
  JoinConfig config;
  config.scale_up = 1024;
  FlagTable flags(
      "rdmajoin_whatif -- replay a captured join trace under what-if hardware\n\n"
      "  rdmajoin_whatif --capture=FILE ... | --trace=FILE ...",
      {StringFlag("--capture", "PATH", &capture_path,
                  "run the join and record its trace to PATH"),
       StringFlag("--trace", "PATH", &trace_path, "replay the trace at PATH"),
       ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset (default qdr)"),
       UintFlag("--machines", &machines, 1, kMaxMachines,
                "machines; must match the trace (default 4)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       DoubleFlag("--inner", &inner_m, kMinMTuples, kMaxMTuples,
                  "captured inner relation, millions of tuples (default 2048)"),
       DoubleFlag("--outer", &outer_m, kMinMTuples, kMaxMTuples,
                  "captured outer relation, millions of tuples (default 2048)"),
       DoubleFlag("--scale", &config.scale_up, 1, kMaxScale,
                  "simulation scale-up (default 1024)"),
       DoubleFlag("--bandwidth-gbps", &bandwidth_gbps, 1e-3, 1e4,
                  "what-if port bandwidth, GB/s (default: the preset's)"),
       DoubleFlag("--congestion-mbps", &congestion_mbps, 0, 1e6,
                  "what-if congestion penalty per extra machine, MB/s\n"
                  "(default: the preset's)"),
       SwitchFlag("--non-interleaved", &non_interleaved,
                  "block on every send (Fig. 5b variant)")});
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 1)) {
    return *exit_code;
  }

  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  ClusterConfig cluster = std::move(*preset);
  if (flags.Given("--bandwidth-gbps")) {
    cluster.fabric.egress_bytes_per_sec = bandwidth_gbps * 1e9;
    cluster.fabric.ingress_bytes_per_sec = bandwidth_gbps * 1e9;
  }
  if (flags.Given("--congestion-mbps")) {
    cluster.fabric.congestion_bytes_per_sec_per_extra_host = congestion_mbps * 1e6;
  }
  if (non_interleaved) cluster.interleave = InterleavePolicy::kNonInterleaved;
  // A what-if knob can leave no effective bandwidth.
  if (Status s = cluster.Validate(); !s.ok()) return Fail(s);

  if (!capture_path.empty()) {
    WorkloadSpec spec;
    spec.inner_tuples = static_cast<uint64_t>(inner_m * 1e6 / config.scale_up);
    spec.outer_tuples = static_cast<uint64_t>(outer_m * 1e6 / config.scale_up);
    if (Status fits = CheckWorkloadFitsMemory(spec, cluster.num_machines,
                                              config.scale_up,
                                              cluster.memory_per_machine_bytes);
        !fits.ok()) {
      return Fail(fits);
    }
    auto workload = GenerateWorkload(spec, cluster.num_machines);
    if (!workload.ok()) return Fail(workload.status());
    DistributedJoin join(cluster, config);
    auto result = join.Run(workload->inner, workload->outer);
    if (!result.ok()) return Fail(result.status());
    Status written = WriteTraceFile(result->trace, capture_path);
    if (!written.ok()) return Fail(written);
    std::printf("captured trace of a %.0fM x %.0fM join on %s to %s\n"
                "(executed total: %.3f s)\n",
                inner_m, outer_m, cluster.name.c_str(), capture_path.c_str(),
                result->times.TotalSeconds());
    return 0;
  }

  if (trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: rdmajoin_whatif --capture=FILE ... | --trace=FILE ...\n");
    return 1;
  }
  auto trace = ReadTraceFile(trace_path);
  if (!trace.ok()) return Fail(trace.status(), 2);
  if (trace->machines.size() != cluster.num_machines) {
    std::fprintf(stderr, "trace has %zu machines, replay cluster has %u\n",
                 trace->machines.size(), cluster.num_machines);
    return 1;
  }
  const ReplayReport report = ReplayTrace(cluster, config, *trace);
  TablePrinter table("what-if replay on " + cluster.name);
  table.SetHeader({"histogram_s", "network_part_s", "local_part_s",
                   "build_probe_s", "total_s"});
  table.AddRow({TablePrinter::Num(report.phases.histogram_seconds, 3),
                TablePrinter::Num(report.phases.network_partition_seconds, 3),
                TablePrinter::Num(report.phases.local_partition_seconds, 3),
                TablePrinter::Num(report.phases.build_probe_seconds, 3),
                TablePrinter::Num(report.phases.TotalSeconds(), 3)});
  table.Print();
  return 0;
}
