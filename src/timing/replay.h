#ifndef RDMAJOIN_TIMING_REPLAY_H_
#define RDMAJOIN_TIMING_REPLAY_H_

#include <future>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "join/join_config.h"
#include "timing/attribution.h"
#include "timing/phase_times.h"
#include "timing/span_trace.h"
#include "timing/trace.h"

namespace rdmajoin {

class FaultInjector;
class MetricsRegistry;

/// Optional knobs for the timing replay.
struct ReplayOptions {
  /// When non-null, the replay records observability metrics into this
  /// registry: per-host fabric utilization and delivery counters under
  /// "fabric." (see LinkFabric::EnableMetrics) and per-machine phase-time
  /// gauges under "join.machine<m>.<phase>_seconds".
  MetricsRegistry* metrics = nullptr;
  /// Bucket width of the per-host fabric activity timelines.
  double utilization_bucket_seconds = 0.01;
  /// Causal span recording (timing/span_trace.h). On by default: every send
  /// of the network pass gets a lifecycle span and the fabric reports
  /// per-flow rate segments, into a byte-bounded flight recorder published
  /// as ReplayReport::spans. Recording is passive -- it never changes any
  /// replayed time. Set spans.enabled = false to switch it off.
  SpanConfig spans;
  /// External recorder to use instead of an internally created one (e.g. a
  /// recorder already attached to the execution layer's devices, so
  /// replay-time spans and exec-layer counts land in one dataset). Must
  /// outlive the returned report; overrides `spans` when set.
  SpanRecorder* span_recorder = nullptr;
  /// Deterministic fault injector (src/fault/). When non-null and active,
  /// the replay applies the scheduled link-capacity windows to the fabric
  /// (degradations and flaps land on the discrete-event clock as rate
  /// transitions), slows straggler machines' compute timelines, and shrinks
  /// the double-buffering credit supply inside credit windows. Null or
  /// inactive leaves every replayed time byte-identical to an injector-free
  /// run. Must outlive the call.
  const FaultInjector* injector = nullptr;
};

/// The replay a run's JoinConfig asks for: its metrics registry, span
/// settings (enable_spans, span_recorder) and fault injector. Every operator
/// replays its trace with these options; a caller that needs a smaller span
/// ring sets ReplayOptions::spans.max_bytes itself.
ReplayOptions ReplayOptionsFor(const JoinConfig& config);

/// Deterministic work counters of the network-pass replay. A rerun of the
/// same trace reproduces them exactly, so they are gated at zero tolerance
/// where wall-clock time can only be gated loosely.
struct ReplayCounters {
  /// Event-loop iterations: thread actions, fabric advances and fault
  /// boundaries.
  uint64_t events = 0;
  /// Drain instants: batches of head pops (LinkFabric::fabric_steps).
  uint64_t fabric_steps = 0;
  /// Lazy link materialisations (LinkFabric::link_updates).
  uint64_t link_updates = 0;
  /// Link-rate assignments across all reshares.
  uint64_t reshared_links = 0;
  /// FlowTelemetry::OnFlowSegment calls: the segments the span recorder
  /// counted during this replay (SpanRecorder::segments_recorded; 0 with
  /// spans off).
  uint64_t telemetry_callbacks = 0;
};

/// Outputs of the discrete-event timing replay.
struct ReplayReport {
  PhaseTimes phases;
  /// Per-machine phase times. The barrier-synchronized `phases` above are the
  /// per-phase maxima of these; the per-machine values show the skew a
  /// Chrome trace visualizes (one timeline row per machine).
  std::vector<PhaseTimes> machine_phases;
  /// Seconds each machine's receiver core spent copying incoming two-sided
  /// messages during the network pass.
  std::vector<double> receiver_busy_seconds;
  /// When each machine's partitioning threads finished computing (max over
  /// threads), network pass only.
  std::vector<double> net_thread_finish_seconds;
  /// Completion time of the last in-flight message.
  double last_completion_seconds = 0;
  /// Average rate at which wire bytes drained during the network pass.
  double avg_network_rate_bytes_per_sec = 0;
  /// Critical-path attribution: per machine and phase, the wall-clock split
  /// into compute / network / buffer-stall / barrier-wait, plus the
  /// critical-machine chain (timing/attribution.h). The components sum to
  /// the global phase times exactly.
  AttributionReport attribution;
  /// The span recorder that observed the network pass (null when disabled).
  /// Query with timing/span_query.h or export via SpanDatasetToJson. Points
  /// at ReplayOptions::span_recorder when one was supplied.
  std::shared_ptr<SpanRecorder> spans;
  /// What the network-pass replay did, in deterministic units.
  ReplayCounters counters;
};

/// Replays an execution trace against the cluster's cost and network models
/// and returns virtual full-scale phase times.
///
/// The network partitioning pass is simulated event by event: each
/// partitioning thread advances along its compute timeline at psPart,
/// posts its recorded sends into a fluid-flow fabric, and blocks when the
/// double-buffering credits of a partition slot are exhausted (or, in the
/// non-interleaved variant, after every send). Receiver cores service
/// incoming messages FIFO at the memcpy rate. The histogram, local
/// partitioning and build/probe phases are barrier-synchronized compute
/// phases evaluated per machine (build/probe via LPT scheduling of the
/// recorded tasks).
///
/// ReplayTrace is the serial composition FinishReplay(ReplayNetworkPass(..)).
ReplayReport ReplayTrace(const ClusterConfig& cluster, const JoinConfig& config,
                         const RunTrace& trace,
                         const ReplayOptions& options = ReplayOptions());

/// The first half of ReplayTrace: the histogram phase and the network-pass
/// discrete-event simulation (DES). Of the trace it reads scale_up, the
/// machine count and, per machine, only the fields the network pass writes
/// (Shuffle / Exchange): histogram_bytes, histogram_exchange_seconds,
/// net_threads, setup_registration_seconds and per_send_registration_seconds
/// (the ownership contract in timing/trace.h). Fills the histogram and
/// network-partition entries of phases, machine_phases and attribution, and
/// receiver_busy_seconds, net_thread_finish_seconds, last_completion_seconds,
/// avg_network_rate_bytes_per_sec, spans and counters. It is the only user
/// of options.metrics and the span recorder while it runs.
ReplayReport ReplayNetworkPass(const ClusterConfig& cluster, const JoinConfig& config,
                               const RunTrace& trace, const ReplayOptions& options);

/// The second half of ReplayTrace: the local phase (from local_pass_bytes
/// and sort_bytes), build/probe LPT scheduling (from tasks, merge_tasks,
/// stolen_in_bytes and materialized_bytes), FinalizeAttribution and the
/// per-machine phase gauges in options.metrics, on top of `network_pass`,
/// which ReplayNetworkPass returned for the same cluster, trace and options.
ReplayReport FinishReplay(const ClusterConfig& cluster, const RunTrace& trace,
                          const ReplayOptions& options, ReplayReport network_pass);

/// Runs an operator's replay beside its local phases. The constructor starts
/// ReplayNetworkPass(cluster, config, trace, ReplayOptionsFor(config)) on a
/// helper thread; Finish joins it and returns FinishReplay over the fields
/// the local phases wrote. The result equals ReplayTrace with the same
/// options. Every distributed operator constructs one right after Shuffle
/// returns and calls Finish after its local phases (phases 2-3).
///
/// The contract that makes this race-free: while the helper runs,
///   - the caller writes only the MachineTrace fields FinishReplay reads
///     (local_pass_bytes, sort_bytes, merge_tasks, tasks, stolen_in_bytes,
///     materialized_bytes), never scale_up, the machines vector itself or a
///     field ReplayNetworkPass reads, and does not move the trace;
///   - the DES is the only user of the config's metrics registry and span
///     recorder, and the caller's local phases log nothing.
/// `cluster`, `config` and `trace` must outlive this object. Destroying it
/// without Finish (an error return) waits for the helper and drops its
/// result.
class OverlappedReplay {
 public:
  OverlappedReplay(const ClusterConfig& cluster, const JoinConfig& config,
                   const RunTrace& trace);
  OverlappedReplay(const OverlappedReplay&) = delete;
  OverlappedReplay& operator=(const OverlappedReplay&) = delete;

  /// Joins the helper and completes the replay. Call at most once.
  ReplayReport Finish();

 private:
  const ClusterConfig& cluster_;
  const JoinConfig& config_;
  const RunTrace& trace_;
  const ReplayOptions options_;
  /// Declared last, so it is destroyed (and the helper joined) first.
  std::future<ReplayReport> network_pass_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_REPLAY_H_
