// Open-loop traffic harness (ROADMAP item 1: "heavy traffic from millions
// of users"). Captures one trace per query class (small/medium/large joins),
// then drives the multi-query scheduler (src/sched/) with seeded
// deterministic Poisson arrivals at a sweep of offered loads: queries arrive
// whether or not earlier ones finished (the serving-stack regime of Rödiger
// et al., "High-Speed Query Processing over High-Speed Networks"), the
// admission controller bounds the run queue, and the report is the latency
// distribution under load -- p50/p95/p99, goodput vs offered load, and the
// sustainable throughput (max offered QPS with zero rejections and bounded
// queue drain). All rows land in BENCH_ext_traffic.json, byte-identical
// across reruns at a fixed (seed, scale), and are gated in CI like every
// other bench. Its own flags (--qps, --policy, --queries, --sched-json) are
// listed in main() and by --help.

#include "bench/bench_common.h"
#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "sched/query_profile.h"
#include "sched/scheduler.h"
#include "sched/workload_mix.h"
#include "util/file.h"
#include "util/table_printer.h"
#include "workload/generator.h"

namespace {

struct TrafficFlags {
  double qps = 0;  // 0 == sweep the default grid
  std::string policy = "overlap";
  uint64_t queries = 24;
  std::string sched_json;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rdmajoin;
  TrafficFlags flags;
  const bench::Options opt = bench::ParseOptions(
      argc, argv, 1024.0,
      {DoubleFlag("--qps", &flags.qps, 1e-6, 1e9,
                  "run one offered load instead of the sweep"),
       StringFlag("--policy", "NAME", &flags.policy,
                  "serial | phase-aligned | overlap | weighted-fair"),
       UintFlag("--queries", &flags.queries, 1, 1000000,
                "arrivals per offered load (default 24)"),
       StringFlag("--sched-json", "PATH", &flags.sched_json,
                  "write the last run's schedule JSON (rdmajoin_explain\n"
                  "--utilization --sched=PATH renders the per-query view)")});
  auto policy = ParseSchedPolicy(flags.policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 2;
  }
  std::printf("Extension: open-loop query traffic, mixed sizes, 4 QDR machines\n");
  bench::PrintScaleNote(opt);

  const ClusterConfig cluster = QdrCluster(4);
  JoinConfig jc;
  jc.scale_up = opt.scale_up;

  // Query classes: small joins dominate the arrival mix, large joins carry
  // most of the work (the usual serving skew).
  const std::vector<MixClass> mix = {
      {"small-256M", 0, 4.0}, {"medium-512M", 1, 2.0}, {"large-1024M", 2, 1.0}};
  auto traces = bench::CaptureQueryTraces(cluster, jc, opt, {256, 512, 1024});
  if (!traces.ok()) {
    std::fprintf(stderr, "%s\n", traces.status().ToString().c_str());
    return 1;
  }
  std::vector<QueryProfile> profiles;
  double max_solo = 0;
  double weighted_solo = 0;
  double weight_sum = 0;
  for (size_t c = 0; c < mix.size(); ++c) {
    profiles.push_back(
        BuildQueryProfile(cluster, jc, (*traces)[c], mix[c].label));
    max_solo = std::max(max_solo, profiles.back().solo_seconds);
    weighted_solo += mix[c].probability_weight * profiles.back().solo_seconds;
    weight_sum += mix[c].probability_weight;
  }
  // Offered-load grid, anchored at the serial capacity of the mix (one
  // query at a time at the mix's mean solo latency). Deterministic: derived
  // only from the replayed profiles.
  const double base_qps = weight_sum / weighted_solo;
  std::vector<double> qps_grid;
  if (flags.qps > 0) {
    qps_grid.push_back(flags.qps);
  } else {
    for (const double m : {0.25, 0.5, 0.75, 1.0, 1.25, 1.5}) {
      qps_grid.push_back(base_qps * m);
    }
  }

  SchedulerConfig sc;
  sc.policy = *policy;
  sc.admission.max_concurrent = 4;
  sc.admission.max_queue_length = 8;

  bench::BenchReporter reporter("ext_traffic", opt);
  TablePrinter table("open-loop traffic, policy=" + flags.policy);
  table.SetHeader({"offered_qps", "done", "rej", "p50_s", "p95_s", "p99_s",
                   "goodput_qps", "drain_s"});
  double sustainable_qps = 0;
  std::string last_sched_json;
  for (const double qps : qps_grid) {
    auto arrivals = GenerateArrivals(
        mix, qps, static_cast<uint32_t>(flags.queries), opt.seed);
    if (!arrivals.ok()) {
      std::fprintf(stderr, "%s\n", arrivals.status().ToString().c_str());
      return 1;
    }
    std::vector<SchedQuery> queries;
    for (const ArrivalEvent& a : *arrivals) {
      SchedQuery q;
      q.profile = profiles[mix[a.class_index].profile_index];
      q.arrival_seconds = a.time_seconds;
      queries.push_back(std::move(q));
    }
    const std::string qps_label = TablePrinter::Num(qps / base_qps, 2) + "x";
    const bench::BenchReporter::Config config = {
        {"policy", flags.policy},
        {"offered_load", qps_label},
        {"queries", TablePrinter::Int(static_cast<long long>(flags.queries))}};
    auto sched = RunSchedule(queries, sc);
    if (!sched.ok()) {
      reporter.AddError("traffic " + qps_label, config,
                        sched.status().ToString());
      continue;
    }
    const Status inv = CheckScheduleInvariants(*sched);
    if (!inv.ok()) {
      reporter.AddError("traffic " + qps_label, config, inv.ToString());
      continue;
    }
    const TrafficSummary s = SummarizeTraffic(*sched, *arrivals, qps);
    reporter.AddMeasurement("p50 " + qps_label, config, s.p50_latency_seconds);
    reporter.AddMeasurement("p95 " + qps_label, config, s.p95_latency_seconds);
    reporter.AddMeasurement("p99 " + qps_label, config, s.p99_latency_seconds);
    reporter.AddMeasurement("goodput " + qps_label, config, s.goodput_qps,
                            "qps");
    reporter.AddMeasurement("rejected " + qps_label, config,
                            static_cast<double>(s.rejected), "queries");
    table.AddRow({TablePrinter::Num(qps, 4),
                  TablePrinter::Int(s.completed),
                  TablePrinter::Int(s.rejected),
                  TablePrinter::Num(s.p50_latency_seconds),
                  TablePrinter::Num(s.p95_latency_seconds),
                  TablePrinter::Num(s.p99_latency_seconds),
                  TablePrinter::Num(s.goodput_qps, 4),
                  TablePrinter::Num(s.drain_seconds)});
    // Sustainable: no rejections and the queue drains within a bounded tail
    // of the last arrival (EXPERIMENTS.md documents the criterion).
    if (s.rejected == 0 && s.drain_seconds <= 2.0 * max_solo) {
      sustainable_qps = std::max(sustainable_qps, qps);
    }
    last_sched_json = ScheduleReportToJson(*sched);
  }
  reporter.AddMeasurement(
      "sustainable_throughput",
      {{"policy", flags.policy},
       {"queries", TablePrinter::Int(static_cast<long long>(flags.queries))}},
      sustainable_qps, "qps");
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  std::printf("sustainable throughput: %.4f qps (policy=%s)\n",
              sustainable_qps, flags.policy.c_str());
  if (!flags.sched_json.empty() && !last_sched_json.empty()) {
    if (const Status st = WriteStringToFile(flags.sched_json, last_sched_json);
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("# wrote %s\n", flags.sched_json.c_str());
  }
  return reporter.Finish();
}
