#include "timing/utilization.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace rdmajoin {

namespace {

double PhaseSeconds(const PhaseTimes& t, JoinPhase phase) {
  switch (phase) {
    case JoinPhase::kHistogram:
      return t.histogram_seconds;
    case JoinPhase::kNetworkPartition:
      return t.network_partition_seconds;
    case JoinPhase::kLocalPartition:
      return t.local_partition_seconds;
    case JoinPhase::kBuildProbe:
      return t.build_probe_seconds;
  }
  return 0;
}

/// The lead partitioning thread per machine: strict max finish time,
/// first-on-tie in the dataset's (machine, thread) order -- the same
/// tie-break the replay uses when it copies the lead thread's credit stalls
/// into the attribution's buffer_stall bucket.
std::vector<const ThreadMark*> LeadThreads(const SpanDataset& dataset,
                                           size_t num_machines) {
  std::vector<const ThreadMark*> lead(num_machines, nullptr);
  for (const ThreadMark& t : dataset.threads) {
    if (t.machine >= num_machines) continue;
    if (lead[t.machine] == nullptr ||
        t.finish_seconds > lead[t.machine]->finish_seconds) {
      lead[t.machine] = &t;
    }
  }
  return lead;
}

/// Adds `sign` x (overlap with [t0, t1] / bucket width) to every bucket the
/// interval touches.
void AddIntervalFraction(std::vector<double>* buckets, double bucket_seconds,
                         double t0, double t1, double sign) {
  if (buckets->empty() || bucket_seconds <= 0 || t1 <= t0) return;
  const double horizon = bucket_seconds * static_cast<double>(buckets->size());
  t0 = std::max(t0, 0.0);
  t1 = std::min(t1, horizon);
  if (t1 <= t0) return;
  size_t b = static_cast<size_t>(t0 / bucket_seconds);
  if (b >= buckets->size()) return;
  double t = t0;
  while (t < t1 && b < buckets->size()) {
    const double edge = bucket_seconds * static_cast<double>(b + 1);
    const double upto = std::min(edge, t1);
    (*buckets)[b] += sign * (upto - t) / bucket_seconds;
    t = upto;
    ++b;
  }
}

}  // namespace

std::string_view IdleCauseName(IdleCause cause) {
  switch (cause) {
    case IdleCause::kBarrierWait:
      return "barrier_wait";
    case IdleCause::kBufferStall:
      return "buffer_stall";
    case IdleCause::kNetworkTail:
      return "network_tail";
  }
  return "unknown";
}

double UtilizationReport::WindowSeconds(uint32_t machine, IdleCause cause) const {
  double total = 0;
  for (const IdleWindow& w : idle_windows) {
    if (w.machine == machine && w.cause == cause) total += w.seconds();
  }
  return total;
}

UtilizationReport ComputeUtilization(const ReplayReport& replay,
                                     const SpanDataset* spans,
                                     const UtilizationOptions& options) {
  UtilizationReport report;
  const AttributionReport& attribution = replay.attribution;
  const size_t nm =
      std::max(attribution.machines.size(), replay.machine_phases.size());

  report.phase_edges[0] = 0;
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    report.phase_edges[p + 1] =
        report.phase_edges[p] +
        PhaseSeconds(attribution.phases, static_cast<JoinPhase>(p));
  }
  report.makespan_seconds = report.phase_edges[kNumJoinPhases];

  // Snapshot the replay's own recorder when the caller did not hand us a
  // dataset explicitly.
  SpanDataset snapshot;
  if (spans == nullptr && replay.spans != nullptr) {
    snapshot = replay.spans->Snapshot();
    spans = &snapshot;
  }
  // Span-derived positions are only trustworthy when nothing was evicted
  // from the flight recorder: a partial ring would under-count the stalls.
  const bool spans_usable = spans != nullptr && spans->spans_dropped == 0 &&
                            !spans->threads.empty();
  report.stall_windows_from_spans = spans_usable;

  const double net0 = report.phase_edges[1];  // Network-pass phase start.
  std::vector<const ThreadMark*> lead =
      spans_usable ? LeadThreads(*spans, nm)
                   : std::vector<const ThreadMark*>(nm, nullptr);

  for (size_t m = 0; m < nm; ++m) {
    MachineUtilization mu;
    mu.machine = static_cast<uint32_t>(m);
    if (m < replay.machine_phases.size()) {
      mu.active_seconds = replay.machine_phases[m].TotalSeconds();
    }

    // 1. Barrier-wait windows: anchored at the global phase end, sized
    //    bit-for-bit from the attribution bucket, so the totals identity
    //    cannot drift no matter how the replay computed the wait.
    if (m < attribution.machines.size()) {
      for (size_t p = 0; p < kNumJoinPhases; ++p) {
        const double wait =
            attribution.machines[m].phases[p].barrier_wait_seconds;
        if (wait <= 0) continue;
        IdleWindow w;
        w.machine = mu.machine;
        w.phase = static_cast<JoinPhase>(p);
        w.cause = IdleCause::kBarrierWait;
        w.t1 = report.phase_edges[p + 1];
        w.t0 = w.t1 - wait;
        report.idle_windows.push_back(w);
        mu.barrier_wait_seconds += wait;
      }
    }

    // 2. Buffer-stall windows: the lead thread's credit-blocked sends, read
    //    straight off its spans' posted -> credit-acquired intervals. Falls
    //    back to one synthetic window sized exactly to the attribution
    //    bucket when the span positions are unavailable or lossy.
    const double attributed_stall =
        m < attribution.machines.size()
            ? attribution.machines[m]
                  .at(JoinPhase::kNetworkPartition)
                  .buffer_stall_seconds
            : 0.0;
    std::vector<IdleWindow> stalls;
    double stall_sum = 0;
    if (spans_usable && lead[m] != nullptr) {
      for (const WrSpan& s : spans->spans) {
        if (s.machine != m || s.thread != lead[m]->thread) continue;
        if (s.stage[0] == kSpanUnset || s.stage[1] == kSpanUnset) continue;
        if (s.stage[1] <= s.stage[0]) continue;
        IdleWindow w;
        w.machine = mu.machine;
        w.phase = JoinPhase::kNetworkPartition;
        w.cause = IdleCause::kBufferStall;
        w.t0 = net0 + s.stage[0];
        w.t1 = net0 + s.stage[1];
        stalls.push_back(w);
        stall_sum += w.seconds();
      }
    }
    if (std::fabs(stall_sum - attributed_stall) > 1e-9) {
      // Positions unknown (or a mid-thread eviction broke the identity):
      // replace with one window of exactly the attributed duration.
      stalls.clear();
      stall_sum = 0;
      if (attributed_stall > 0) {
        IdleWindow w;
        w.machine = mu.machine;
        w.phase = JoinPhase::kNetworkPartition;
        w.cause = IdleCause::kBufferStall;
        w.t0 = net0;
        w.t1 = net0 + attributed_stall;
        stalls.push_back(w);
        stall_sum = attributed_stall;
      }
      report.stall_windows_from_spans = false;
    }
    for (const IdleWindow& w : stalls) report.idle_windows.push_back(w);
    mu.buffer_stall_seconds = stall_sum;

    // 3. Network-tail window: partitioning threads done, receiver core /
    //    inbound transfers still draining. Positions come from the spans'
    //    delivery / service / completion events; without spans the tail is
    //    folded into the attribution's network bucket and not windowed.
    if (spans != nullptr && m < replay.net_thread_finish_seconds.size()) {
      const double finish = replay.net_thread_finish_seconds[m];
      double last_net = finish;
      for (const WrSpan& s : spans->spans) {
        if (s.dst == m) {
          if (s.stage[3] != kSpanUnset) last_net = std::max(last_net, s.stage[3]);
          if (s.recv_end != kSpanUnset) last_net = std::max(last_net, s.recv_end);
        }
        if (s.machine == m && s.stage[4] != kSpanUnset) {
          last_net = std::max(last_net, s.stage[4]);
        }
      }
      if (last_net > finish) {
        IdleWindow w;
        w.machine = mu.machine;
        w.phase = JoinPhase::kNetworkPartition;
        w.cause = IdleCause::kNetworkTail;
        w.t0 = net0 + finish;
        w.t1 = net0 + last_net;
        report.idle_windows.push_back(w);
        mu.network_tail_seconds = w.seconds();
      }
    }

    report.machines.push_back(mu);
  }

  std::sort(report.idle_windows.begin(), report.idle_windows.end(),
            [](const IdleWindow& a, const IdleWindow& b) {
              if (a.machine != b.machine) return a.machine < b.machine;
              if (a.t0 != b.t0) return a.t0 < b.t0;
              return static_cast<int>(a.cause) < static_cast<int>(b.cause);
            });

  // Occupancy timelines.
  const size_t nbuckets = std::max<size_t>(1, options.timeline_buckets);
  if (report.makespan_seconds > 0) {
    const double bw = report.makespan_seconds / static_cast<double>(nbuckets);
    for (size_t m = 0; m < nm; ++m) {
      HostTimeline tl;
      tl.machine = static_cast<uint32_t>(m);
      tl.bucket_seconds = bw;
      tl.compute_busy.assign(nbuckets, 0.0);
      tl.egress_bytes_per_sec.assign(nbuckets, 0.0);
      tl.ingress_bytes_per_sec.assign(nbuckets, 0.0);
      if (m < replay.machine_phases.size()) {
        for (size_t p = 0; p < kNumJoinPhases; ++p) {
          const double mine = PhaseSeconds(replay.machine_phases[m],
                                           static_cast<JoinPhase>(p));
          AddIntervalFraction(&tl.compute_busy, bw, report.phase_edges[p],
                              report.phase_edges[p] + mine, +1.0);
        }
      }
      // Idle sub-intervals of the machine's own activity (credit stalls and
      // the network tail) are not compute; barrier waits lie outside the
      // machine's activity interval already.
      for (const IdleWindow& w : report.idle_windows) {
        if (w.machine != m || w.cause == IdleCause::kBarrierWait) continue;
        AddIntervalFraction(&tl.compute_busy, bw, w.t0, w.t1, -1.0);
      }
      for (double& v : tl.compute_busy) v = std::clamp(v, 0.0, 1.0);
      if (spans != nullptr) {
        for (const FlowSegment& seg : spans->segments) {
          const double t0 = net0 + seg.t0;
          const double t1 = net0 + seg.t1;
          if (seg.src == m) {
            AddIntervalFraction(&tl.egress_bytes_per_sec, bw, t0, t1, seg.rate);
          }
          if (seg.dst == m) {
            AddIntervalFraction(&tl.ingress_bytes_per_sec, bw, t0, t1, seg.rate);
          }
        }
      }
      report.timelines.push_back(std::move(tl));
    }
  }
  return report;
}

UtilizationCheck CheckUtilization(const UtilizationReport& report,
                                  const AttributionReport& attribution,
                                  double tolerance) {
  UtilizationCheck check;
  auto violate = [&check](const std::string& what) {
    check.violations.push_back(what);
  };

  // 4. Phase edges accumulate the global phase times.
  double edge = 0;
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    edge += PhaseSeconds(attribution.phases, static_cast<JoinPhase>(p));
    if (std::fabs(report.phase_edges[p + 1] - edge) > tolerance) {
      violate("phase edge " + std::to_string(p + 1) + " is " +
              std::to_string(report.phase_edges[p + 1]) +
              ", expected cumulative " + std::to_string(edge));
    }
  }

  // 3. Window sanity + ordering.
  for (size_t i = 0; i < report.idle_windows.size(); ++i) {
    const IdleWindow& w = report.idle_windows[i];
    const std::string tag = "window " + std::to_string(i) + " (machine " +
                            std::to_string(w.machine) + ", " +
                            std::string(IdleCauseName(w.cause)) + ")";
    if (w.t0 < -tolerance || w.t1 < w.t0 ||
        w.t1 > report.makespan_seconds + tolerance) {
      violate(tag + ": interval [" + std::to_string(w.t0) + ", " +
              std::to_string(w.t1) + "] escapes [0, makespan]");
    }
    if (i > 0) {
      const IdleWindow& prev = report.idle_windows[i - 1];
      const bool ordered =
          prev.machine < w.machine ||
          (prev.machine == w.machine &&
           (prev.t0 < w.t0 ||
            (prev.t0 == w.t0 &&
             static_cast<int>(prev.cause) <= static_cast<int>(w.cause))));
      if (!ordered) violate(tag + ": windows not sorted by (machine, t0, cause)");
    }
  }

  // 1 + 2. The per-machine totals identities against the attribution.
  if (report.machines.size() != attribution.machines.size()) {
    violate("report covers " + std::to_string(report.machines.size()) +
            " machine(s), attribution has " +
            std::to_string(attribution.machines.size()));
  }
  const size_t nm =
      std::min(report.machines.size(), attribution.machines.size());
  for (size_t m = 0; m < nm; ++m) {
    double attributed_barrier = 0;
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      attributed_barrier += attribution.machines[m].phases[p].barrier_wait_seconds;
    }
    const double windowed_barrier =
        report.WindowSeconds(static_cast<uint32_t>(m), IdleCause::kBarrierWait);
    if (std::fabs(windowed_barrier - attributed_barrier) > tolerance) {
      violate("machine " + std::to_string(m) + ": barrier-wait windows sum to " +
              std::to_string(windowed_barrier) + " s, attribution says " +
              std::to_string(attributed_barrier) + " s");
    }
    const double attributed_stall = attribution.machines[m]
                                        .at(JoinPhase::kNetworkPartition)
                                        .buffer_stall_seconds;
    const double windowed_stall =
        report.WindowSeconds(static_cast<uint32_t>(m), IdleCause::kBufferStall);
    if (std::fabs(windowed_stall - attributed_stall) > tolerance) {
      violate("machine " + std::to_string(m) + ": buffer-stall windows sum to " +
              std::to_string(windowed_stall) + " s, attribution says " +
              std::to_string(attributed_stall) + " s");
    }
    // The struct totals must agree with the windows they summarize.
    if (std::fabs(report.machines[m].barrier_wait_seconds - windowed_barrier) >
            tolerance ||
        std::fabs(report.machines[m].buffer_stall_seconds - windowed_stall) >
            tolerance) {
      violate("machine " + std::to_string(m) +
              ": per-machine totals disagree with the window list");
    }
  }
  return check;
}

std::string FormatUtilization(const UtilizationReport& report, size_t top_k) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "utilization: makespan %.6f s, %zu idle window(s), stall "
                "windows %s\n",
                report.makespan_seconds, report.idle_windows.size(),
                report.stall_windows_from_spans ? "from spans"
                                                : "synthetic (attribution-sized)");
  out += buf;

  double total_by_cause[kNumIdleCauses] = {0, 0, 0};
  for (const MachineUtilization& m : report.machines) {
    total_by_cause[0] += m.barrier_wait_seconds;
    total_by_cause[1] += m.buffer_stall_seconds;
    total_by_cause[2] += m.network_tail_seconds;
  }
  out += "per-machine busy/idle split (seconds):\n";
  out += "  machine   active  barrier_wait  buffer_stall  network_tail  idle  busy\n";
  for (const MachineUtilization& m : report.machines) {
    const double denom =
        report.makespan_seconds > 0 ? report.makespan_seconds : 1.0;
    std::snprintf(buf, sizeof(buf),
                  "  %-7u %8.3f %13.3f %13.3f %13.3f %5.3f %5.1f%%\n", m.machine,
                  m.active_seconds, m.barrier_wait_seconds,
                  m.buffer_stall_seconds, m.network_tail_seconds,
                  m.IdleSeconds(), 100 * (1.0 - m.IdleSeconds() / denom));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "idle totals: barrier_wait %.3f s, buffer_stall %.3f s, "
                "network_tail %.3f s\n",
                total_by_cause[0], total_by_cause[1], total_by_cause[2]);
  out += buf;

  // Top-k longest windows: the co-scheduling opportunities, biggest first.
  std::vector<const IdleWindow*> longest;
  longest.reserve(report.idle_windows.size());
  for (const IdleWindow& w : report.idle_windows) longest.push_back(&w);
  std::stable_sort(longest.begin(), longest.end(),
                   [](const IdleWindow* a, const IdleWindow* b) {
                     return a->seconds() > b->seconds();
                   });
  if (longest.size() > top_k) longest.resize(top_k);
  out += "longest idle windows (co-scheduling opportunities):\n";
  for (const IdleWindow* w : longest) {
    std::snprintf(buf, sizeof(buf),
                  "  machine %-3u %-18s %-13s [%10.6f, %10.6f]  %8.6f s\n",
                  w->machine, std::string(JoinPhaseName(w->phase)).c_str(),
                  std::string(IdleCauseName(w->cause)).c_str(), w->t0, w->t1,
                  w->seconds());
    out += buf;
  }
  return out;
}

std::string UtilizationToJson(const UtilizationReport& report) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("schema_version").Uint(1);
  w.Key("makespan_seconds").Number(report.makespan_seconds);
  w.Key("stall_windows_from_spans").Bool(report.stall_windows_from_spans);
  w.Key("phase_edges").BeginArray();
  for (const double edge : report.phase_edges) w.Number(edge);
  w.EndArray().Key("machines").BeginArray();
  for (const MachineUtilization& mu : report.machines) {
    w.BeginObject().Key("machine").Number(mu.machine);
    w.Key("active_seconds").Number(mu.active_seconds);
    w.Key("barrier_wait_seconds").Number(mu.barrier_wait_seconds);
    w.Key("buffer_stall_seconds").Number(mu.buffer_stall_seconds);
    w.Key("network_tail_seconds").Number(mu.network_tail_seconds);
    w.EndObject();
  }
  w.EndArray().Key("idle_windows").BeginArray();
  for (const IdleWindow& iw : report.idle_windows) {
    w.BeginObject().Key("machine").Number(iw.machine);
    w.Key("phase").String(JoinPhaseName(iw.phase));
    w.Key("cause").String(IdleCauseName(iw.cause));
    w.Key("t0").Number(iw.t0).Key("t1").Number(iw.t1).EndObject();
  }
  w.EndArray().Key("timelines").BeginArray();
  for (const HostTimeline& tl : report.timelines) {
    w.BeginObject().Key("machine").Number(tl.machine);
    w.Key("bucket_seconds").Number(tl.bucket_seconds);
    auto array = [&w](const char* key, const std::vector<double>& v) {
      w.Key(key).BeginArray();
      for (const double x : v) w.Number(x);
      w.EndArray();
    };
    array("compute_busy", tl.compute_busy);
    array("egress_bytes_per_sec", tl.egress_bytes_per_sec);
    array("ingress_bytes_per_sec", tl.ingress_bytes_per_sec);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace rdmajoin
