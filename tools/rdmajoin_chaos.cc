// Chaos harness: run the distributed join under a seeded matrix of fault
// presets and report how each fault degrades the makespan relative to the
// fault-free baseline -- and, more importantly, that every faulted run ends
// in one of the two permitted outcomes: a clean Status error (abort policy /
// exhausted retries) or the exact correct join cardinality (recovery). A
// crash, a wrong cardinality, or a success-with-partial-results fails the
// harness with a nonzero exit code, which is what CI's chaos-smoke job gates
// on.
//
//   rdmajoin_chaos --cluster=qdr --machines=4 --seed=42
//   rdmajoin_chaos --presets=qp-error,qp-drop --policy=both --json=chaos.json
//
// The matrix is deterministic in (preset list, seed): identical invocations
// produce identical tables and identical JSON bytes.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "tools/flags.h"
#include "util/file.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/table_printer.h"
#include "workload/generator.h"

namespace {

using namespace rdmajoin;

struct ChaosRow {
  std::string preset;
  std::string policy;
  std::string outcome;  // "ok" | "abort" | "WRONG-RESULT"
  bool acceptable = false;
  double total_seconds = 0;     // 0 when the run aborted
  double degradation = 0;       // total / baseline - 1, successful runs only
  double send_retries = 0;
  double qp_recoveries = 0;
  std::string detail;           // abort status message, if any
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = s.find(',', pos);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cluster_name = "qdr";
  uint32_t machines = 4;
  uint32_t cores = 8;
  double inner_mtuples = 512;
  double outer_mtuples = 512;
  double scale_up = 1024.0;
  uint64_t seed = 42;
  std::string preset_list;  // comma-separated; empty = all presets
  std::string policy = "both";
  std::string json_out;
  FlagTable flags(
      "rdmajoin_chaos -- fault-injection matrix for the distributed join",
      {ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset (default qdr)"),
       UintFlag("--machines", &machines, 1, kMaxMachines, "machines (default 4)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       DoubleFlag("--inner", &inner_mtuples, kMinMTuples, kMaxMTuples,
                  "inner relation size, millions of tuples (default 512)"),
       DoubleFlag("--outer", &outer_mtuples, kMinMTuples, kMaxMTuples,
                  "outer relation size, millions of tuples (default 512)"),
       DoubleFlag("--scale", &scale_up, 1, kMaxScale,
                  "simulation scale-up (default 1024)"),
       UintFlag("--seed", &seed, 0, UINT64_MAX,
                "workload + chaos-schedule seed (default 42)"),
       StringFlag("--presets", "a,b,c", &preset_list,
                  "fault presets to run (default: all)"),
       ChoiceFlag("--policy", &policy, {"abort", "recover", "both"},
                  "fault policies to run (default both)"),
       StringFlag("--json", "PATH", &json_out, "write the matrix as JSON rows")},
      "exit status: 0 when every run ends in a clean abort or the exact\n"
      "correct cardinality; 1 otherwise");
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 1)) {
    return *exit_code;
  }

  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  const ClusterConfig cluster = std::move(*preset);

  std::vector<std::string> presets = SplitCsv(preset_list);
  if (presets.empty()) presets = FaultPresetNames();
  std::vector<std::string> policies;
  if (policy == "abort" || policy == "both") policies.push_back("abort");
  if (policy == "recover" || policy == "both") policies.push_back("recover");

  WorkloadSpec spec;
  spec.inner_tuples =
      static_cast<uint64_t>(inner_mtuples * 1e6 / scale_up);
  spec.outer_tuples =
      static_cast<uint64_t>(outer_mtuples * 1e6 / scale_up);
  spec.seed = seed;
  if (Status fits = CheckWorkloadFitsMemory(spec, cluster.num_machines, scale_up,
                                            cluster.memory_per_machine_bytes);
      !fits.ok()) {
    return Fail(fits);
  }
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  if (!workload.ok()) return Fail(workload.status());

  // Fault-free baseline: the degradation reference and the correctness oracle.
  JoinConfig base_config;
  base_config.scale_up = scale_up;
  auto baseline =
      DistributedJoin(cluster, base_config).Run(workload->inner, workload->outer);
  if (!baseline.ok()) return Fail(baseline.status());
  const double baseline_seconds = baseline->times.TotalSeconds();
  const uint64_t expected_matches = workload->truth.expected_matches;

  std::vector<ChaosRow> rows;
  bool all_acceptable = true;
  for (const std::string& preset : presets) {
    auto schedule = MakeFaultPreset(preset, seed, cluster.num_machines);
    if (!schedule.ok()) return Fail(schedule.status());
    const FaultInjector injector(std::move(*schedule));
    for (const std::string& run_policy : policies) {
      JoinConfig config;
      config.scale_up = scale_up;
      config.fault_injector = &injector;
      config.fault_policy =
          run_policy == "recover" ? FaultPolicy::kRecover : FaultPolicy::kAbort;
      MetricsRegistry metrics;
      config.metrics = &metrics;

      ChaosRow row;
      row.preset = preset;
      row.policy = run_policy;
      auto result =
          DistributedJoin(cluster, config).Run(workload->inner, workload->outer);
      if (!result.ok()) {
        // A clean abort is a permitted outcome -- the join refused to report
        // partial results as success.
        row.outcome = "abort";
        row.acceptable = true;
        row.detail = result.status().ToString();
      } else if (result->stats.matches != expected_matches) {
        row.outcome = "WRONG-RESULT";
        row.acceptable = false;
        row.total_seconds = result->times.TotalSeconds();
        row.detail = "got " + std::to_string(result->stats.matches) +
                     " matches, expected " + std::to_string(expected_matches);
      } else {
        row.outcome = "ok";
        row.acceptable = true;
        row.total_seconds = result->times.TotalSeconds();
        if (baseline_seconds > 0) {
          row.degradation = row.total_seconds / baseline_seconds - 1.0;
        }
      }
      if (const Counter* c = metrics.FindCounter("fault.send_retries")) {
        row.send_retries = c->value();
      }
      if (const Counter* c = metrics.FindCounter("fault.qp_recoveries")) {
        row.qp_recoveries = c->value();
      }
      all_acceptable = all_acceptable && row.acceptable;
      rows.push_back(std::move(row));
    }
  }

  TablePrinter table("chaos matrix on " + cluster.name + " (baseline " +
                     TablePrinter::Num(baseline_seconds, 3) + " s, seed " +
                     std::to_string(seed) + ")");
  table.SetHeader({"preset", "policy", "outcome", "total_s", "degradation",
                   "retries", "recoveries"});
  for (const ChaosRow& row : rows) {
    table.AddRow({row.preset, row.policy, row.outcome,
                  row.outcome == "abort" ? "-"
                                         : TablePrinter::Num(row.total_seconds, 3),
                  row.outcome == "ok"
                      ? TablePrinter::Num(100.0 * row.degradation, 1) + "%"
                      : "-",
                  TablePrinter::Num(row.send_retries, 0),
                  TablePrinter::Num(row.qp_recoveries, 0)});
  }
  table.Print();
  for (const ChaosRow& row : rows) {
    if (!row.detail.empty()) {
      std::printf("  %s/%s: %s\n", row.preset.c_str(), row.policy.c_str(),
                  row.detail.c_str());
    }
  }

  if (!json_out.empty()) {
    std::string json;
    JsonWriter w(&json);
    w.BeginObject().Key("baseline_seconds").Number(baseline_seconds);
    w.Key("seed").Number(static_cast<double>(seed));
    w.Key("rows").BeginArray();
    for (const ChaosRow& row : rows) {
      w.Break(0).BeginObject();
      w.Key("preset").String(row.preset);
      w.Key("policy").String(row.policy);
      w.Key("outcome").String(row.outcome);
      w.Key("acceptable").Bool(row.acceptable);
      w.Key("total_seconds").Number(row.total_seconds);
      w.Key("degradation").Number(row.degradation);
      w.Key("send_retries").Number(row.send_retries);
      w.Key("qp_recoveries").Number(row.qp_recoveries);
      if (!row.detail.empty()) w.Key("detail").String(row.detail);
      w.EndObject();
    }
    w.EndArray().EndObject();
    json += "\n";
    if (!WriteStringToFile(json_out, json).ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
  }

  if (!all_acceptable) {
    std::fprintf(stderr,
                 "chaos matrix FAILED: at least one run produced a wrong "
                 "result instead of a clean abort or recovery\n");
    return 1;
  }
  return 0;
}
