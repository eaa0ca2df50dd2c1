#include "timing/replay.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "fault/injector.h"
#include "sim/link_fabric.h"
#include "timing/makespan.h"
#include "util/indexed_heap.h"
#include "util/metrics.h"

namespace rdmajoin {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Simulation state of one partitioning thread during the network pass.
struct ThreadSim {
  uint32_t machine = 0;
  uint32_t thread = 0;
  const ThreadNetTrace* tr = nullptr;

  enum class State { kComputing, kBlockedCredit, kBlockedFlow, kDone };
  State state = State::kComputing;

  size_t next_send = 0;
  double time = 0;
  uint64_t compute_done = 0;  // actual bytes
  uint32_t blocked_slot = 0;
  uint64_t blocked_flow = 0;
  /// Span opened for the send currently being posted (survives a credit
  /// block so the span's posted/credit stages bracket the stall).
  uint64_t pending_span = 0;
  /// In-flight sends per credit slot, sized to the thread's largest slot + 1
  /// (ValidateTrace bounds slots by 2^kMaxNetworkRadixBits).
  std::vector<uint32_t> outstanding;

  // Wall-clock attribution of this thread's timeline: every advancement of
  // `time` lands in exactly one bucket, so compute + credit_stall +
  // flow_stall + recovery always equals `time`. `recovery_seconds` holds
  // fault-induced slowdown: the straggler excess over the nominal compute
  // time plus the transport's recorded retry/timeout/backoff delays.
  double compute_seconds = 0;
  double credit_stall_seconds = 0;
  double flow_stall_seconds = 0;
  double recovery_seconds = 0;
  double stall_start = 0;
};

/// A send in the fabric, indexed by its Enqueue cookie.
struct FlowInfo {
  size_t thread_index;
  uint32_t slot;
  uint32_t dst;
  double virtual_bytes;
  uint64_t span = 0;
};

/// Per-send sender-side CPU overheads (virtual seconds).
double PerSendOverhead(const ClusterConfig& cluster, const MachineTrace& mt,
                       double virtual_wire_bytes) {
  double extra = mt.per_send_registration_seconds;
  if (cluster.transport == TransportKind::kTcp) {
    // Kernel crossing plus the copy into the socket buffer.
    extra += cluster.tcp.per_message_seconds;
    extra += virtual_wire_bytes / cluster.tcp.sender_copy_bytes_per_sec;
  }
  return extra;
}

}  // namespace

ReplayOptions ReplayOptionsFor(const JoinConfig& config) {
  ReplayOptions options;
  options.metrics = config.metrics;
  options.spans.enabled = config.enable_spans;
  options.span_recorder = config.span_recorder;
  options.injector = config.fault_injector;
  return options;
}

ReplayReport ReplayNetworkPass(const ClusterConfig& cluster, const JoinConfig& config,
                               const RunTrace& trace, const ReplayOptions& options) {
  ReplayReport report;
  const uint32_t nm = cluster.num_machines;
  assert(trace.machines.size() == nm);
  report.machine_phases.assign(nm, PhaseTimes{});
  report.attribution.machines.assign(nm, MachineAttribution{});
  const double scale = trace.scale_up;
  const CostModel& costs = cluster.costs;
  const uint32_t cores = cluster.cores_per_machine;

  // ---- Histogram phase: all cores scan the machine's input, then the
  // machine-level histograms are exchanged over the control plane. ----
  for (uint32_t m = 0; m < nm; ++m) {
    const double vbytes = static_cast<double>(trace.machines[m].histogram_bytes) * scale;
    const double scan =
        vbytes / (static_cast<double>(cores) * costs.histogram_bytes_per_sec);
    const double t = scan + trace.machines[m].histogram_exchange_seconds;
    report.machine_phases[m].histogram_seconds = t;
    report.phases.histogram_seconds = std::max(report.phases.histogram_seconds, t);
    PhaseAttribution& attr =
        report.attribution.machines[m].at(JoinPhase::kHistogram);
    attr.compute_seconds = scan;
    attr.network_seconds = trace.machines[m].histogram_exchange_seconds;
  }

  // ---- Network partitioning pass: discrete-event simulation. ----
  FabricConfig fc = cluster.fabric;
  fc.num_hosts = nm;
  if (cluster.transport == TransportKind::kTcp) {
    fc.egress_bytes_per_sec = cluster.tcp.bytes_per_sec;
    fc.ingress_bytes_per_sec = cluster.tcp.bytes_per_sec;
    fc.message_rate_per_host = 0.0;  // Per-message cost is paid by the CPU.
  }
  LinkFabric fabric(fc);
  if (options.metrics != nullptr) {
    fabric.EnableMetrics(options.metrics, "fabric",
                         options.utilization_bucket_seconds);
  }
  // Span recorder: an external one when supplied (aliased, not owned), else
  // an internal one per SpanConfig. Published on the report either way.
  std::shared_ptr<SpanRecorder> recorder;
  if (options.span_recorder != nullptr) {
    if (options.span_recorder->enabled()) {
      recorder = std::shared_ptr<SpanRecorder>(std::shared_ptr<void>(),
                                               options.span_recorder);
    }
  } else if (options.spans.enabled) {
    recorder = std::make_shared<SpanRecorder>(options.spans);
  }
  report.spans = recorder;
  if (recorder != nullptr) {
    recorder->NoteMachines(nm);
    fabric.EnableFlowTelemetry(recorder.get());
  }
  // An external recorder may already hold earlier replays' segments.
  const uint64_t segments_before =
      recorder != nullptr ? recorder->segments_recorded() : 0;

  std::vector<ThreadSim> threads;
  uint64_t total_sends = 0;
  for (uint32_t m = 0; m < nm; ++m) {
    const auto& mt = trace.machines[m];
    for (uint32_t t = 0; t < mt.net_threads.size(); ++t) {
      ThreadSim& ts = threads.emplace_back();
      ts.machine = m;
      ts.thread = t;
      ts.tr = &mt.net_threads[t];
      uint32_t max_slot = 0;
      for (const SendRecord& send : ts.tr->sends) {
        max_slot = std::max(max_slot, send.slot);
      }
      ts.outstanding.assign(static_cast<size_t>(max_slot) + 1, 0);
      total_sends += ts.tr->sends.size();
    }
  }
  // One span per send: the recorder then writes only the spans it keeps.
  if (recorder != nullptr) recorder->ExpectSpans(total_sends);

  const uint32_t credits = cluster.interleave == InterleavePolicy::kNonInterleaved
                               ? 1
                               : config.buffers_per_partition;
  const bool has_receiver_copy = cluster.transport == TransportKind::kRdmaChannel ||
                                 cluster.transport == TransportKind::kTcp;

  // Fault injection (src/fault/): an inactive injector is dropped entirely so
  // the fault-free code paths below stay literally identical.
  const FaultInjector* inj =
      (options.injector != nullptr && options.injector->active())
          ? options.injector
          : nullptr;
  // Effective double-buffering credit supply at virtual time `t` (shrunk
  // inside credit windows, never below one credit).
  auto effective_credits = [&](uint32_t machine, double t) -> uint32_t {
    if (inj != nullptr && inj->HasCreditFaults()) {
      return inj->EffectiveCredits(machine, t, credits);
    }
    return credits;
  };
  // Apply the link-capacity scales covering t = 0 and schedule the first
  // window boundary; inside the loop the fabric is advanced to every
  // boundary so rate transitions land on the discrete-event clock.
  double next_fault = kInf;
  if (inj != nullptr) {
    if (inj->HasLinkFaults()) {
      for (uint32_t h = 0; h < nm; ++h) {
        fabric.SetHostCapacityScale(h, inj->EgressScale(h, 0.0),
                                    inj->IngressScale(h, 0.0));
      }
    }
    next_fault = inj->NextTransitionAfter(0.0);
  }

  report.receiver_busy_seconds.assign(nm, 0.0);
  report.net_thread_finish_seconds.assign(nm, 0.0);
  std::vector<double> receiver_ready(nm, 0.0);  // FIFO service completion time
  // Receiver-not-ready backpressure: a message only releases its sender-side
  // buffer credit once a receive-ring slot is free again, i.e. once the
  // receiver finished servicing the message `ring_depth` positions earlier.
  // ring_slot_free[m] holds the service-finish times of the last `ring`
  // messages of machine m (circular).
  const uint32_t ring = config.recv_buffers_per_link * (nm > 1 ? nm - 1 : 1);
  // Flat per-machine ring of service-finish times (row m at m * ring).
  std::vector<double> ring_slot_free(static_cast<size_t>(nm) * ring, 0.0);
  std::vector<uint64_t> ring_pos(nm, 0);
  // Sends in the fabric, indexed by their Enqueue cookie; completed entries
  // are reused through the free list.
  std::vector<FlowInfo> flows;
  std::vector<uint64_t> free_flows;
  double total_virtual_wire = 0;
  std::vector<double> last_completion_to(nm, 0.0);

  const double ps_part = costs.partition_bytes_per_sec;

  // Virtual time a thread needs to reach compute position `target_bytes`.
  // On a straggler machine the nominal compute time is stretched piecewise
  // by the scheduled slowdown windows; without one the result is exactly
  // ts.time + delta (ComputeFinishTime guarantees the identity case too).
  auto compute_time_to = [&](const ThreadSim& ts, uint64_t target_bytes) {
    const double delta =
        static_cast<double>(target_bytes - ts.compute_done) * scale / ps_part;
    if (inj != nullptr && inj->HasStraggler(ts.machine)) {
      return inj->ComputeFinishTime(ts.machine, ts.time, delta);
    }
    return ts.time + delta;
  };
  // Advances `ts` to the action time `t_thread`, splitting the stretch into
  // nominal compute and straggler-induced recovery time.
  auto charge_compute = [&](ThreadSim& ts, double t_thread,
                            uint64_t target_bytes) {
    if (inj != nullptr && inj->HasStraggler(ts.machine)) {
      const double nominal =
          static_cast<double>(target_bytes - ts.compute_done) * scale / ps_part;
      ts.compute_seconds += nominal;
      ts.recovery_seconds += (t_thread - ts.time) - nominal;
    } else {
      ts.compute_seconds += t_thread - ts.time;
    }
    ts.time = t_thread;
  };

  // Time at which a thread will next act if unblocked; +inf when waiting.
  auto next_action_time = [&](const ThreadSim& ts) -> double {
    switch (ts.state) {
      case ThreadSim::State::kDone:
      case ThreadSim::State::kBlockedCredit:
      case ThreadSim::State::kBlockedFlow:
        return kInf;
      case ThreadSim::State::kComputing:
        if (ts.next_send < ts.tr->sends.size()) {
          return compute_time_to(ts, ts.tr->sends[ts.next_send].compute_bytes_before);
        }
        return compute_time_to(ts, ts.tr->compute_bytes);
    }
    return kInf;
  };

  // Threads that will act, keyed by (next action time, thread index): the
  // top is the earliest action, lowest index first on ties. A thread is
  // re-keyed whenever it acts or is woken; a waiting or finished one is out.
  IndexedMinHeap ready(threads.size());
  auto rekey = [&](size_t i) {
    const double t = next_action_time(threads[i]);
    if (t == kInf) {
      ready.Erase(static_cast<uint32_t>(i));
    } else {
      ready.Set(static_cast<uint32_t>(i), t);
    }
  };
  for (size_t i = 0; i < threads.size(); ++i) rekey(i);

  uint64_t active = threads.size();
  double last_completion = 0;
  // Drains a batch of fabric completions: receiver service, span stages,
  // credit return and thread wake-ups. Shared by the net-completion branch
  // and the fault-boundary branch of the event loop below.
  auto process_completions = [&](const std::vector<LinkFabric::Completion>& done) {
    for (const auto& c : done) {
      last_completion = std::max(last_completion, c.time);
      const FlowInfo fi = flows[c.cookie];
      free_flows.push_back(c.cookie);
      last_completion_to[fi.dst] = std::max(last_completion_to[fi.dst], c.time);
      if (recorder != nullptr && fi.span != 0) {
        recorder->MarkStage(fi.span, SpanStage::kDelivered, c.time);
      }
      // Receiver-side service (two-sided copies / TCP receive path) with
      // receive-ring backpressure: if every ring buffer is still waiting
      // to be drained, the sender's acknowledgement (and thus its buffer
      // credit) is delayed until a slot frees up.
      double credit_time = c.time;
      if (has_receiver_copy) {
        double service;
        if (cluster.transport == TransportKind::kTcp) {
          service = fi.virtual_bytes / cluster.tcp.receiver_bytes_per_sec +
                    cluster.tcp.per_message_seconds;
        } else {
          service = fi.virtual_bytes / costs.memcpy_bytes_per_sec;
        }
        double* slots = ring_slot_free.data() + static_cast<size_t>(fi.dst) * ring;
        const uint64_t pos = ring_pos[fi.dst]++ % ring;
        const double slot_free_at = slots[pos];
        const double start =
            std::max({receiver_ready[fi.dst], c.time, slot_free_at});
        receiver_ready[fi.dst] = start + service;
        slots[pos] = receiver_ready[fi.dst];
        report.receiver_busy_seconds[fi.dst] += service;
        credit_time = std::max(credit_time, slot_free_at);
        if (recorder != nullptr && fi.span != 0) {
          recorder->SetReceiverService(fi.span, start, receiver_ready[fi.dst]);
        }
      }
      if (recorder != nullptr && fi.span != 0) {
        recorder->MarkStage(fi.span, SpanStage::kCompleted, credit_time);
      }
      // Return the buffer credit and possibly wake the thread.
      ThreadSim& ts = threads[fi.thread_index];
      uint32_t& out = ts.outstanding[fi.slot];
      assert(out > 0);
      --out;
      if (ts.state == ThreadSim::State::kBlockedFlow && ts.blocked_flow == c.id) {
        ts.state = ThreadSim::State::kComputing;
        ts.time = std::max(ts.time, credit_time);
        ts.flow_stall_seconds += ts.time - ts.stall_start;
        rekey(fi.thread_index);
      } else if (ts.state == ThreadSim::State::kBlockedCredit &&
                 ts.blocked_slot == fi.slot &&
                 out < effective_credits(ts.machine, credit_time)) {
        ts.state = ThreadSim::State::kComputing;
        ts.time = std::max(ts.time, credit_time);
        ts.credit_stall_seconds += ts.time - ts.stall_start;
        rekey(fi.thread_index);
      }
    }
  };
  // Run until every thread is done AND the fabric is fully idle. The last
  // drained message's completion sits in the fabric's latency stage after
  // the queue empties, so the queued-message count alone would drop it
  // (NextCompletionTime covers both queued bytes and buffered completions).
  std::vector<LinkFabric::Completion> done;
  while (active > 0 || fabric.queued_messages() > 0 ||
         fabric.NextCompletionTime() != kInf) {
    ++report.counters.events;
    // Earliest thread action.
    const double t_thread = ready.empty() ? kInf : ready.top_key();
    const size_t who = ready.empty() ? 0 : ready.top();
    const double t_net = fabric.NextCompletionTime();

    // Fault-window boundary: advance the fabric to the transition (draining
    // anything that completes under the old rates first), switch the host
    // capacity scales, and wake credit-blocked threads whose supply just
    // replenished. Ties go to the boundary so events at the same instant
    // see the post-transition world. With nothing left to happen all three
    // are +inf, and the break below ends the loop.
    if (next_fault != kInf && next_fault <= t_thread && next_fault <= t_net) {
      const double t_fault = next_fault;
      done.clear();
      fabric.AdvanceTo(t_fault, &done);
      if (!done.empty()) process_completions(done);
      if (inj->HasLinkFaults()) {
        for (uint32_t h = 0; h < nm; ++h) {
          fabric.SetHostCapacityScale(h, inj->EgressScale(h, t_fault),
                                      inj->IngressScale(h, t_fault));
        }
      }
      if (inj->HasCreditFaults()) {
        for (size_t i = 0; i < threads.size(); ++i) {
          ThreadSim& ts = threads[i];
          if (ts.state != ThreadSim::State::kBlockedCredit) continue;
          if (ts.outstanding[ts.blocked_slot] <
              effective_credits(ts.machine, t_fault)) {
            ts.state = ThreadSim::State::kComputing;
            ts.time = std::max(ts.time, t_fault);
            ts.credit_stall_seconds += ts.time - ts.stall_start;
            rekey(i);
          }
        }
      }
      next_fault = inj->NextTransitionAfter(t_fault);
      continue;
    }

    if (t_net <= t_thread) {
      if (t_net == kInf) break;  // Nothing left to happen.
      // t_net is the earliest delivery, so this batch is empty only when
      // rounding re-keyed a head past its drain time.
      done.clear();
      fabric.AdvanceTo(t_net, &done);
      if (!done.empty()) process_completions(done);
      continue;
    }

    // Thread action.
    ThreadSim& ts = threads[who];
    assert(ts.state == ThreadSim::State::kComputing);
    if (ts.next_send >= ts.tr->sends.size()) {
      // Final compute stretch: the thread is finished.
      charge_compute(ts, t_thread, ts.tr->compute_bytes);
      ts.compute_done = ts.tr->compute_bytes;
      ts.state = ThreadSim::State::kDone;
      --active;
      report.net_thread_finish_seconds[ts.machine] =
          std::max(report.net_thread_finish_seconds[ts.machine], ts.time);
      rekey(who);
      continue;
    }
    const SendRecord& send = ts.tr->sends[ts.next_send];
    charge_compute(ts, t_thread, send.compute_bytes_before);
    ts.compute_done = send.compute_bytes_before;
    const double vbytes = static_cast<double>(send.wire_bytes) * scale;
    const uint32_t flow_src = send.src_machine == SendRecord::kIssuerIsSource
                                  ? ts.machine
                                  : send.src_machine;
    // Open the span at the send's first arrival (the compute anchor); a
    // credit-blocked retry re-enters here with the span already open, so
    // posted -> credit-acquired brackets the stall exactly.
    if (recorder != nullptr && ts.pending_span == 0) {
      ts.pending_span = recorder->BeginSpan(
          ts.machine, ts.thread, send.slot, flow_src, send.dst_machine, vbytes,
          /*pull=*/send.src_machine != SendRecord::kIssuerIsSource, ts.time);
    }
    const uint32_t out = ts.outstanding[send.slot];
    if (out >= effective_credits(ts.machine, ts.time)) {
      ts.state = ThreadSim::State::kBlockedCredit;
      ts.blocked_slot = send.slot;
      ts.stall_start = ts.time;
      rekey(who);
      continue;  // Will retry the same send once a credit returns.
    }
    if (recorder != nullptr && ts.pending_span != 0) {
      recorder->MarkStage(ts.pending_span, SpanStage::kCreditAcquired, ts.time);
    }
    // Post the send: charge sender-side per-message overheads, then inject.
    const double overhead = PerSendOverhead(cluster, trace.machines[ts.machine], vbytes);
    ts.time += overhead;
    ts.compute_seconds += overhead;
    // Execution-layer recovery (transport retries, timeouts, backoff) delays
    // this send's admission; the delay is the fault_recovery bucket's share
    // of the thread timeline. Zero (and skipped) on fault-free traces.
    if (send.retries > 0 || send.retry_delay_seconds > 0) {
      ts.time += send.retry_delay_seconds;
      ts.recovery_seconds += send.retry_delay_seconds;
      if (recorder != nullptr && ts.pending_span != 0) {
        recorder->SetFaultInfo(ts.pending_span, send.retries,
                               send.retry_delay_seconds);
      }
    }
    const FlowInfo fi{who, send.slot, send.dst_machine, vbytes, ts.pending_span};
    uint64_t cookie = flows.size();
    if (free_flows.empty()) {
      flows.push_back(fi);
    } else {
      cookie = free_flows.back();
      free_flows.pop_back();
      flows[cookie] = fi;
    }
    const LinkFabric::MessageId id =
        fabric.Enqueue(flow_src, send.dst_machine, vbytes, ts.time, cookie);
    if (recorder != nullptr && ts.pending_span != 0) {
      recorder->MarkStage(ts.pending_span, SpanStage::kFabricAdmitted, ts.time);
      recorder->SetFlow(ts.pending_span, id);
    }
    ts.pending_span = 0;
    ++ts.outstanding[send.slot];
    total_virtual_wire += vbytes;
    ++ts.next_send;
    if (cluster.interleave == InterleavePolicy::kNonInterleaved) {
      ts.state = ThreadSim::State::kBlockedFlow;
      ts.blocked_flow = id;
      ts.stall_start = ts.time;
    }
    rekey(who);
  }
  if (active > 0) {
    // A thread waits on a credit or flow that nothing will return. Its
    // unposted sends would be missing from every phase time (and their
    // promised spans from the recorder): a corrupted replay, not a
    // recoverable condition, so fail hard in every build mode.
    uint64_t posted = 0;
    for (const ThreadSim& ts : threads) posted += ts.next_send;
    std::fprintf(stderr,
                 "rdmajoin: replay stalled with %llu thread(s) unfinished "
                 "after posting %llu of %llu sends\n",
                 static_cast<unsigned long long>(active),
                 static_cast<unsigned long long>(posted),
                 static_cast<unsigned long long>(total_sends));
    std::abort();
  }
  report.counters.fabric_steps = fabric.fabric_steps();
  report.counters.link_updates = fabric.link_updates();
  report.counters.reshared_links = fabric.reshared_links();
  if (recorder != nullptr) {
    report.counters.telemetry_callbacks =
        recorder->segments_recorded() - segments_before;
  }

  if (recorder != nullptr) {
    // Threads are in (machine, thread) order -- the order the attribution's
    // lead-thread tie-break assumes.
    for (const ThreadSim& ts : threads) {
      recorder->AddThreadMark(ThreadMark{ts.machine, ts.thread, ts.time,
                                         ts.compute_seconds,
                                         ts.credit_stall_seconds,
                                         ts.flow_stall_seconds,
                                         ts.recovery_seconds});
    }
  }

  double net_end = last_completion;
  for (const ThreadSim& ts : threads) net_end = std::max(net_end, ts.time);
  for (uint32_t m = 0; m < nm; ++m) net_end = std::max(net_end, receiver_ready[m]);
  double setup = 0;
  for (uint32_t m = 0; m < nm; ++m) {
    setup = std::max(setup, trace.machines[m].setup_registration_seconds);
  }
  report.phases.network_partition_seconds = net_end + setup;
  // Per-machine view: a machine's network phase ends when its own senders,
  // its receiver core and its last inbound message are all done.
  std::vector<double> machine_net_end(nm, 0.0);
  std::vector<const ThreadSim*> lead_thread(nm, nullptr);
  for (const ThreadSim& ts : threads) {
    if (ts.time > machine_net_end[ts.machine]) {
      machine_net_end[ts.machine] = ts.time;
      lead_thread[ts.machine] = &ts;
    }
  }
  for (uint32_t m = 0; m < nm; ++m) {
    const double lead_finish = machine_net_end[m];
    machine_net_end[m] = std::max(
        {machine_net_end[m], receiver_ready[m], last_completion_to[m]});
    report.machine_phases[m].network_partition_seconds =
        machine_net_end[m] + trace.machines[m].setup_registration_seconds;
    // Decompose along the machine's critical chain: its last-finishing
    // partitioning thread, then the tail until the machine's receiver core
    // and last inbound transfer are done (pure network wait -- the CPU has
    // nothing left to do). Registration setup is CPU work.
    PhaseAttribution& attr =
        report.attribution.machines[m].at(JoinPhase::kNetworkPartition);
    attr.compute_seconds = trace.machines[m].setup_registration_seconds;
    if (lead_thread[m] != nullptr) {
      attr.compute_seconds += lead_thread[m]->compute_seconds;
      attr.buffer_stall_seconds = lead_thread[m]->credit_stall_seconds;
      attr.network_seconds = lead_thread[m]->flow_stall_seconds;
      attr.fault_recovery_seconds = lead_thread[m]->recovery_seconds;
    }
    attr.network_seconds += machine_net_end[m] - lead_finish;
  }
  report.last_completion_seconds = last_completion;
  if (net_end > 0) {
    report.avg_network_rate_bytes_per_sec = total_virtual_wire / net_end;
  }
  return report;
}

ReplayReport FinishReplay(const ClusterConfig& cluster, const RunTrace& trace,
                          const ReplayOptions& options, ReplayReport network_pass) {
  ReplayReport report = std::move(network_pass);
  const uint32_t nm = cluster.num_machines;
  assert(trace.machines.size() == nm && report.machine_phases.size() == nm);
  const double scale = trace.scale_up;
  const CostModel& costs = cluster.costs;
  const uint32_t cores = cluster.cores_per_machine;
  const double ps_part = costs.partition_bytes_per_sec;

  // ---- Local phase: partitioning passes at full partitioning speed plus
  // any local sorting (sort-merge operator), all cores. ----
  for (uint32_t m = 0; m < nm; ++m) {
    const double vbytes =
        static_cast<double>(trace.machines[m].local_pass_bytes) * scale;
    double t = vbytes / (static_cast<double>(cores) * ps_part);
    t += static_cast<double>(trace.machines[m].sort_bytes) * scale /
         (static_cast<double>(cores) * costs.sort_bytes_per_sec);
    report.machine_phases[m].local_partition_seconds = t;
    report.phases.local_partition_seconds =
        std::max(report.phases.local_partition_seconds, t);
    report.attribution.machines[m]
        .at(JoinPhase::kLocalPartition)
        .compute_seconds = t;
  }

  // ---- Build/probe: LPT scheduling of the recorded tasks per machine.
  // Stolen partition data must first arrive over the network (serialized at
  // the effective port bandwidth); materialized output is written at memcpy
  // speed by the probing threads. ----
  const double port_bandwidth = cluster.PortBytesPerSec();
  for (uint32_t m = 0; m < nm; ++m) {
    const MachineTrace& mt = trace.machines[m];
    std::vector<double> task_seconds;
    task_seconds.reserve(mt.tasks.size());
    for (const BuildProbeTask& task : mt.tasks) {
      task_seconds.push_back(task.build_bytes * scale / costs.build_bytes_per_sec +
                             task.probe_bytes * scale / costs.probe_bytes_per_sec);
    }
    for (double bytes : mt.merge_tasks) {
      task_seconds.push_back(bytes * scale / costs.merge_bytes_per_sec);
    }
    const double lpt = LptMakespan(task_seconds, cores);
    const double stolen_transfer =
        static_cast<double>(mt.stolen_in_bytes) * scale / port_bandwidth;
    const double materialize =
        static_cast<double>(mt.materialized_bytes) * scale /
        (static_cast<double>(cores) * costs.memcpy_bytes_per_sec);
    const double t = lpt + stolen_transfer + materialize;
    report.machine_phases[m].build_probe_seconds = t;
    report.phases.build_probe_seconds =
        std::max(report.phases.build_probe_seconds, t);
    PhaseAttribution& attr =
        report.attribution.machines[m].at(JoinPhase::kBuildProbe);
    attr.compute_seconds = lpt + materialize;
    attr.network_seconds = stolen_transfer;
  }

  FinalizeAttribution(report.machine_phases, report.phases, &report.attribution);

  if (options.metrics != nullptr) {
    for (uint32_t m = 0; m < nm; ++m) {
      const std::string name = "join.machine" + std::to_string(m);
      const PhaseTimes& p = report.machine_phases[m];
      options.metrics->GetGauge(name + ".histogram_seconds")
          ->Set(p.histogram_seconds);
      options.metrics->GetGauge(name + ".network_partition_seconds")
          ->Set(p.network_partition_seconds);
      options.metrics->GetGauge(name + ".local_partition_seconds")
          ->Set(p.local_partition_seconds);
      options.metrics->GetGauge(name + ".build_probe_seconds")
          ->Set(p.build_probe_seconds);
    }
  }

  return report;
}

ReplayReport ReplayTrace(const ClusterConfig& cluster, const JoinConfig& config,
                         const RunTrace& trace, const ReplayOptions& options) {
  return FinishReplay(cluster, trace, options,
                      ReplayNetworkPass(cluster, config, trace, options));
}

OverlappedReplay::OverlappedReplay(const ClusterConfig& cluster,
                                   const JoinConfig& config, const RunTrace& trace)
    : cluster_(cluster),
      config_(config),
      trace_(trace),
      options_(ReplayOptionsFor(config)),
      network_pass_(std::async(std::launch::async, [this] {
        return ReplayNetworkPass(cluster_, config_, trace_, options_);
      })) {}

ReplayReport OverlappedReplay::Finish() {
  return FinishReplay(cluster_, trace_, options_, network_pass_.get());
}

}  // namespace rdmajoin
