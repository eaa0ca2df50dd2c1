// Host-time (wall-clock) microbenchmarks of the fluid network engine
// (LinkFabric): what a rate reshare costs at replay-like flow counts and
// what flow telemetry adds; the trace codec (TraceToJson/TraceFromJson) the
// forensics tools run on a captured trace; a whole join's replay with
// spans off and on; and a whole DistributedJoin::Run, whose network-pass
// replay runs beside its local phases. Unlike
// every fig/abl harness (which reports *virtual* seconds and is
// byte-identical across machines), these rows
// measure the machine they run on; the committed baseline is gated in CI
// with a generous tolerance (see .github/workflows/ci.yml perf-smoke) so it
// catches order-of-magnitude engine regressions, not scheduler noise.
//
// lint: the wall-clock allowance for this file lives in
// tools/lint_config.json -- host-time measurement is this bench's purpose.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "sim/link_fabric.h"
#include "timing/replay.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best of three runs: host-time benches fight scheduler noise, and the
/// minimum is the least contaminated estimate of the true cost.
template <typename Fn>
double BestOfThreeSeconds(const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowSeconds();
    fn();
    const double dt = NowSeconds() - t0;
    if (rep == 0 || dt < best) best = dt;
  }
  return best;
}

// --- LinkFabric: reshare cost at replay-like flow counts -------------------

constexpr uint32_t kReshareHosts = 10;  // 90 ordered pairs >= 64 active links
constexpr int kReshareRounds = 40;
constexpr int kQueueDepthPerLink = 6;

FabricConfig EngineConfig() {
  FabricConfig f;
  f.num_hosts = kReshareHosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  f.message_rate_per_host = 5.0;  // binding cap: head pops refresh rates
  f.base_latency_seconds = 1e-6;
  return f;
}

struct LinkPumpStats {
  uint64_t messages = 0;
  uint64_t reshares = 0;
  uint64_t reshared_links = 0;
  size_t flows_at_peak = 0;
};

/// All-to-all link pump: every ordered pair keeps a deep queue of
/// distinct-size messages, so head pops dominate and desynchronize --
/// the replay hot path at network-partitioning peak. With `telemetry` the
/// fabric additionally tracks each head's open rate segment and reports it
/// through `telemetry` once its rate or label changes or the head drains,
/// which is exactly what a replay with span recording enabled pays.
LinkPumpStats PumpLinkFabric(FlowTelemetry* telemetry = nullptr) {
  LinkFabric fabric(EngineConfig());
  if (telemetry != nullptr) fabric.EnableFlowTelemetry(telemetry);
  LinkPumpStats stats;
  double t = 0.0;
  std::vector<LinkFabric::Completion> done;
  for (int round = 0; round < kReshareRounds; ++round) {
    uint32_t li = 0;
    for (uint32_t s = 0; s < kReshareHosts; ++s) {
      for (uint32_t d = 0; d < kReshareHosts; ++d) {
        if (s == d) continue;
        for (int k = 0; k < kQueueDepthPerLink; ++k) {
          fabric.Enqueue(s, d, 100.0 + 13.0 * li + 7.0 * k, t);
          ++stats.messages;
        }
        ++li;
      }
    }
    stats.flows_at_peak = std::max(stats.flows_at_peak, fabric.queued_messages());
    t += 1e6;
    done.clear();
    fabric.AdvanceTo(t, &done);
  }
  stats.reshares = fabric.reshares();
  stats.reshared_links = fabric.reshared_links();
  return stats;
}

// --- Trace codec: a captured trace written and read back -----------------

// About three times e2ebench's rack10 trace (Fig. 7a, 10 machines at scale
// 4096): 7 network threads per machine and one build/probe task per
// partition, every tuple of small integers.
constexpr uint32_t kCodecMachines = 10;
constexpr uint32_t kCodecThreadsPerMachine = 7;
constexpr uint32_t kCodecSendsPerThread = 39000;
constexpr uint32_t kCodecTasksPerMachine = 150000;

/// A fixed synthetic trace: each thread ships one-tuple 16 B buffers to
/// pseudo-random slots (below 2^10) of the other machines.
RunTrace CodecTrace() {
  RunTrace trace;
  trace.scale_up = 4096;
  trace.machines.resize(kCodecMachines);
  uint64_t state = 42;
  for (uint32_t m = 0; m < kCodecMachines; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.net_threads.resize(kCodecThreadsPerMachine);
    for (ThreadNetTrace& tt : mt.net_threads) {
      tt.sends.reserve(kCodecSendsPerThread);
      for (uint32_t i = 0; i < kCodecSendsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto slot = static_cast<uint32_t>(state >> 54);
        const uint32_t dst =
            (m + 1 + slot % (kCodecMachines - 1)) % kCodecMachines;
        tt.sends.push_back(SendRecord{dst, slot, 16, 16 * uint64_t{i}});
      }
      tt.compute_bytes = 16 * uint64_t{kCodecSendsPerThread};
    }
    mt.tasks.reserve(kCodecTasksPerMachine);
    for (uint32_t k = 0; k < kCodecTasksPerMachine; ++k) {
      const double bytes = 16.0 * (1 + k % 4);
      mt.tasks.push_back(BuildProbeTask{bytes, bytes, bytes});
    }
  }
  return trace;
}

// --- Replay: one join's network pass with spans off and on ----------------

// Fig. 7a's 10-machine QDR join at an eighth of e2ebench's rack10 size:
// about 112,000 sends, three and a half times the default span ring.
constexpr uint32_t kReplayMachines = 10;
constexpr uint64_t kReplayTuples = 62500;
constexpr double kReplayScale = 4096;

struct ReplayJoin {
  ClusterConfig cluster;
  JoinConfig config;
  RunTrace trace;
  uint64_t sends = 0;
};

/// Runs the join once, spans off, for its trace; `sends` stays 0 if the
/// join fails.
ReplayJoin MakeReplayJoin() {
  ReplayJoin r;
  r.cluster = QdrCluster(kReplayMachines);
  r.config.scale_up = kReplayScale;
  r.config.enable_spans = false;
  WorkloadSpec spec;
  spec.inner_tuples = kReplayTuples;
  spec.outer_tuples = kReplayTuples;
  spec.seed = 42;
  StatusOr<Workload> w = GenerateWorkload(spec, kReplayMachines);
  if (!w.ok()) return r;
  StatusOr<JoinRunResult> run =
      DistributedJoin(r.cluster, r.config).Run(w->inner, w->outer);
  if (!run.ok()) return r;
  r.trace = std::move(run->trace);
  for (const MachineTrace& mt : r.trace.machines) {
    for (const ThreadNetTrace& tt : mt.net_threads) r.sends += tt.sends.size();
  }
  return r;
}

// --- A whole join: Run with spans on -------------------------------------

// Fig. 7a's 2-machine 2048M x 2048M QDR join at scale 4096 (e2ebench's
// pair2_fine runs it at scale 256): the local phases and the network-pass
// replay, which Run overlaps, cost about the same.
constexpr uint32_t kRunMachines = 2;
constexpr uint64_t kRunTuples = 500000;
constexpr double kRunScale = 4096;

int Run(int argc, char** argv) {
  const bench::Options opt = bench::ParseOptions(argc, argv);
  bench::BenchReporter reporter("micro_replay_engine", opt);

  // LinkFabric reshare cost (the replay hot path).
  LinkPumpStats link;
  const double link_s = BestOfThreeSeconds([&] { link = PumpLinkFabric(); });
  const bench::BenchReporter::Config link_cfg = {
      {"hosts", std::to_string(kReshareHosts)},
      {"messages", std::to_string(link.messages)},
      {"flows_at_peak", std::to_string(link.flows_at_peak)}};
  reporter.AddMeasurement("link_reshare_incremental", link_cfg, link_s);
  reporter.AddMeasurement("link_pump_events_per_sec", link_cfg,
                          static_cast<double>(link.messages) / link_s,
                          "events_per_sec");
  reporter.AddMeasurement(
      "link_reshared_assignments_incremental", link_cfg,
      static_cast<double>(link.reshared_links), "assignments");
  std::printf("link fabric: %.3fs (%llu assignments), %zu flows at peak\n",
              link_s, static_cast<unsigned long long>(link.reshared_links),
              link.flows_at_peak);

  // Telemetry overhead: the same link pump with a SpanRecorder attached, so
  // every fabric step additionally extends or closes each moving head's
  // labeled segment, and every closed one lands in the recorder's ring.
  // This is the marginal cost a replay pays for bottleneck forensics.
  const double link_tel_s = BestOfThreeSeconds([&] {
    SpanRecorder recorder;
    PumpLinkFabric(&recorder);
  });
  reporter.AddMeasurement("link_reshare_telemetry", link_cfg, link_tel_s);
  reporter.AddMeasurement("link_telemetry_overhead", link_cfg,
                          link_tel_s / link_s, "x");
  std::printf("link fabric telemetry: %.3fs with recorder (%.2fx of bare)\n",
              link_tel_s, link_tel_s / link_s);

  // Trace codec: the write and the validated read of rdmajoin_trace and
  // rdmajoin_explain.
  const RunTrace trace = CodecTrace();
  std::string json;
  const double write_s = BestOfThreeSeconds([&] { json = TraceToJson(trace); });
  bool read_ok = true;
  const double read_s = BestOfThreeSeconds([&] {
    const StatusOr<RunTrace> parsed = TraceFromJson(json);
    read_ok = read_ok && parsed.ok();
  });
  const bench::BenchReporter::Config codec_cfg = {
      {"machines", std::to_string(kCodecMachines)},
      {"sends", std::to_string(kCodecMachines * kCodecThreadsPerMachine *
                               kCodecSendsPerThread)},
      {"tasks", std::to_string(kCodecMachines * kCodecTasksPerMachine)},
      {"bytes", std::to_string(json.size())}};
  reporter.AddMeasurement("trace_to_json", codec_cfg, write_s);
  reporter.AddMeasurement("trace_from_json", codec_cfg, read_s);
  std::printf("trace codec: %.1f MB written in %.3fs, read in %.3fs%s\n",
              static_cast<double>(json.size()) / 1e6, write_s, read_s,
              read_ok ? "" : " (READ FAILED)");
  if (!read_ok) return 1;

  // Replay with spans off and on (the default 8 MiB budget): the span
  // recorder's cost when its ring wraps.
  const ReplayJoin join = MakeReplayJoin();
  if (join.sends == 0) {
    std::printf("replay: the join failed\n");
    return 1;
  }
  ReplayOptions spans_off;
  spans_off.spans.enabled = false;
  uint64_t spans_recorded = 0;
  const double off_s = BestOfThreeSeconds(
      [&] { ReplayTrace(join.cluster, join.config, join.trace, spans_off); });
  const double on_s = BestOfThreeSeconds([&] {
    const ReplayReport r = ReplayTrace(join.cluster, join.config, join.trace);
    spans_recorded = r.spans->spans_recorded();
  });
  const bench::BenchReporter::Config replay_cfg = {
      {"machines", std::to_string(kReplayMachines)},
      {"sends", std::to_string(join.sends)}};
  reporter.AddMeasurement("replay_spans_off", replay_cfg, off_s);
  reporter.AddMeasurement("replay_spans_on", replay_cfg, on_s);
  std::printf("replay: %llu sends, spans off %.3fs, on %.3fs (%llu spans)\n",
              static_cast<unsigned long long>(join.sends), off_s, on_s,
              static_cast<unsigned long long>(spans_recorded));
  if (spans_recorded != join.sends) return 1;

  // A whole Run with spans on (the default): data path, network-pass replay
  // on its helper thread, and the rest of the replay once both are done.
  WorkloadSpec run_spec;
  run_spec.inner_tuples = kRunTuples;
  run_spec.outer_tuples = kRunTuples;
  run_spec.seed = 42;
  const StatusOr<Workload> run_workload = GenerateWorkload(run_spec, kRunMachines);
  if (!run_workload.ok()) {
    std::printf("join run: %s\n", run_workload.status().ToString().c_str());
    return 1;
  }
  const ClusterConfig run_cluster = QdrCluster(kRunMachines);
  JoinConfig run_config;
  run_config.scale_up = kRunScale;
  bool run_ok = true;
  uint64_t run_events = 0;
  const double run_s = BestOfThreeSeconds([&] {
    const StatusOr<JoinRunResult> run =
        DistributedJoin(run_cluster, run_config)
            .Run(run_workload->inner, run_workload->outer);
    run_ok = run_ok && run.ok() &&
             run->stats.matches == run_workload->truth.expected_matches;
    if (run.ok()) run_events = run->replay.counters.events;
  });
  const bench::BenchReporter::Config run_cfg = {
      {"machines", std::to_string(kRunMachines)},
      {"tuples", std::to_string(2 * kRunTuples)}};
  reporter.AddMeasurement("join_run_spans_on", run_cfg, run_s);
  reporter.AddMeasurement("join_run_replay_events", run_cfg,
                          static_cast<double>(run_events), "events");
  std::printf("join run: %.3fs spans on, %llu replay events%s\n", run_s,
              static_cast<unsigned long long>(run_events),
              run_ok ? "" : " (JOIN FAILED)");
  if (!run_ok) return 1;

  return reporter.Finish();
}

}  // namespace
}  // namespace rdmajoin

int main(int argc, char** argv) { return rdmajoin::Run(argc, argv); }
