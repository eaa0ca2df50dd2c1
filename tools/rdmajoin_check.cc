// Verbs protocol checker: replays a join configuration with a
// ProtocolValidator attached to every RDMA device, queue pair, completion
// queue and buffer pool, and prints the protocol-violation report.
//
//   rdmajoin_check --cluster=qdr --machines=8 --inner=2048 --outer=2048
//   rdmajoin_check --operator=sortmerge --transport=memory
//   rdmajoin_check --mode=strict   # fail on the first violation
//
// Exit status: 0 if the replay is violation-free, 2 if violations were
// detected, 1 on configuration or execution errors.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"
#include "rdma/validator.h"
#include "tools/flags.h"
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
  double inner_mtuples = 256;
  double outer_mtuples = 256;
  std::optional<TransportKind> transport;  // unset: the preset's
  std::string mode = "report";
  bool register_on_demand = false;
  WorkloadSpec spec;  // --width, --zipf, --seed
  JoinConfig config;  // --scale, --assignment
  config.scale_up = 1024.0;
  FlagTable flags(
      "rdmajoin_check -- verbs protocol validator: replays a join and reports\n"
      "contract violations (use-after-deregister, out-of-bounds work requests,\n"
      "unposted receives, buffer double-release/leaks, CQ overflows, region\n"
      "leaks at device teardown).",
      {ChoiceFlag("--cluster", &cluster_name, PresetClusterNames(),
                  "hardware preset (default qdr)"),
       UintFlag("--machines", &machines, 1, kMaxMachines,
                "machines / sockets (default 4)"),
       UintFlag("--cores", &cores, 1, kMaxCores, "cores per machine (default 8)"),
       ChoiceFlag("--operator", &op, {"hashjoin", "sortmerge", "aggregate"},
                  "operator to run (default hashjoin)"),
       DoubleFlag("--inner", &inner_mtuples, kMinMTuples, kMaxMTuples,
                  "inner relation size, millions of tuples (default 256)"),
       DoubleFlag("--outer", &outer_mtuples, kMinMTuples, kMaxMTuples,
                  "outer relation size, millions of tuples (default 256)"),
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
                 {"read", TransportKind::kRdmaRead},
                 {"tcp", TransportKind::kTcp}},
                "override the preset's transport"),
       SwitchFlag("--register-on-demand", &register_on_demand,
                  "disable the preregistered buffer pool"),
       ChoiceFlag("--mode", &mode, {"report", "strict"},
                  "report: replay everything and print the\n"
                  "report; strict: fail on first violation"),
       UintFlag("--seed", &spec.seed, 0, UINT64_MAX,
                "workload RNG seed (default 42)")},
      "exit status: 0 clean, 2 violations detected, 1 error");
  if (const auto exit_code = flags.ParseOrExitCode(argc, argv, 1)) {
    return *exit_code;
  }

  auto preset = PresetCluster(cluster_name, machines, cores);
  if (!preset.ok()) return Fail(preset.status());
  ClusterConfig cluster = std::move(*preset);
  if (transport) cluster.transport = *transport;

  ProtocolValidator validator(mode == "strict" ? ProtocolValidator::Mode::kStrict
                                               : ProtocolValidator::Mode::kReport);

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

  config.preregister_buffers = !register_on_demand;
  config.validator = &validator;

  std::string verified = "n/a";
  if (op == "hashjoin" || op == "sortmerge") {
    StatusOr<JoinRunResult> result =
        op == "hashjoin"
            ? DistributedJoin(cluster, config).Run(workload->inner, workload->outer)
            : DistributedSortMergeJoin(cluster, config)
                  .Run(workload->inner, workload->outer);
    if (!result.ok()) {
      // In strict mode a violation aborts the run with an error Status; the
      // report below still names it. Other errors are fatal.
      if (validator.total_violations() == 0) return Fail(result.status());
      std::fprintf(stderr, "replay aborted: %s\n",
                   result.status().ToString().c_str());
    } else {
      verified = result->stats.matches == workload->truth.expected_matches &&
                         result->stats.key_sum == workload->truth.expected_key_sum
                     ? "yes"
                     : "NO";
    }
  } else {  // aggregate
    auto result = DistributedAggregate(cluster, config).Run(workload->outer);
    if (!result.ok()) {
      if (validator.total_violations() == 0) return Fail(result.status());
      std::fprintf(stderr, "replay aborted: %s\n",
                   result.status().ToString().c_str());
    } else {
      verified = result->stats.total_count == spec.outer_tuples ? "yes" : "NO";
    }
  }

  std::printf("%s, %s, %s mode -- result verified: %s\n", cluster.name.c_str(),
              op.c_str(), mode.c_str(), verified.c_str());
  std::fputs(validator.report().ToString().c_str(), stdout);
  return validator.total_violations() == 0 ? 0 : 2;
}
