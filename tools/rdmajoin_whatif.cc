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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "timing/replay.h"
#include "timing/trace_io.h"
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
  double inner_m = 2048, outer_m = 2048, scale = 1024, bandwidth_gbps = 0;
  double congestion_mbps = -1;
  bool non_interleaved = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len && arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--capture")) {
      capture_path = v;
    } else if (const char* v = value("--trace")) {
      trace_path = v;
    } else if (const char* v = value("--cluster")) {
      cluster_name = v;
    } else if (const char* v = value("--machines")) {
      machines = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--cores")) {
      cores = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--inner")) {
      inner_m = std::atof(v);
    } else if (const char* v = value("--outer")) {
      outer_m = std::atof(v);
    } else if (const char* v = value("--scale")) {
      scale = std::atof(v);
    } else if (const char* v = value("--bandwidth-gbps")) {
      bandwidth_gbps = std::atof(v);
    } else if (const char* v = value("--congestion-mbps")) {
      congestion_mbps = std::atof(v);
    } else if (arg == "--non-interleaved") {
      non_interleaved = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }

  ClusterConfig cluster;
  if (cluster_name == "qdr") {
    cluster = QdrCluster(machines, cores);
  } else if (cluster_name == "fdr") {
    cluster = FdrCluster(machines, cores);
  } else if (cluster_name == "ipoib") {
    cluster = IpoibCluster(machines, cores);
  } else {
    std::fprintf(stderr, "unknown cluster %s\n", cluster_name.c_str());
    return 1;
  }
  if (bandwidth_gbps > 0) {
    cluster.fabric.egress_bytes_per_sec = bandwidth_gbps * 1e9;
    cluster.fabric.ingress_bytes_per_sec = bandwidth_gbps * 1e9;
  }
  if (congestion_mbps >= 0) {
    cluster.fabric.congestion_bytes_per_sec_per_extra_host = congestion_mbps * 1e6;
  }
  if (non_interleaved) cluster.interleave = InterleavePolicy::kNonInterleaved;

  JoinConfig config;
  config.scale_up = scale;

  if (!capture_path.empty()) {
    WorkloadSpec spec;
    spec.inner_tuples = static_cast<uint64_t>(inner_m * 1e6 / scale);
    spec.outer_tuples = static_cast<uint64_t>(outer_m * 1e6 / scale);
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
