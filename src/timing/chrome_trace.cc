#include "timing/chrome_trace.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/schedule.h"
#include "timing/span_query.h"
#include "timing/span_trace.h"
#include "util/file.h"
#include "util/json.h"
#include "util/metrics.h"

namespace rdmajoin {

namespace {

double Micros(double seconds) { return seconds * 1e6; }

/// Opens an event object with its name, phase and process row.
void BeginEvent(JsonWriter* w, std::string_view name, const char* ph,
                uint32_t pid) {
  w->BeginObject().Key("name").String(name).Key("ph").String(ph);
  w->Key("pid").Uint(pid);
}

/// One "X" (complete) slice; `args`, when given, writes the members of
/// its args object.
void AppendSlice(JsonWriter* w, const std::string& name, uint32_t pid,
                 uint32_t tid, double start_seconds, double duration_seconds,
                 const std::function<void()>& args = nullptr) {
  BeginEvent(w, name, "X", pid);
  w->Key("tid").Uint(tid);
  w->Key("ts").Number(Micros(start_seconds));
  w->Key("dur").Number(Micros(duration_seconds));
  if (args) {
    w->Key("args").BeginObject();
    args();
    w->EndObject();
  }
  w->EndObject();
}

/// One "C" (counter) sample on machine `pid`.
void AppendCounter(JsonWriter* w, const std::string& name, uint32_t pid,
                   double ts_seconds, double value) {
  BeginEvent(w, name, "C", pid);
  w->Key("ts").Number(Micros(ts_seconds));
  w->Key("args").BeginObject().Key("MB/s").Number(value).EndObject();
  w->EndObject();
}

/// One flow event: ph "s" (start) at the sender slice or ph "f" (end,
/// binding point "e" = enclosing slice) at the receiver slice. The pair is
/// keyed by the span id; Perfetto draws the arrow between the slices that
/// enclose the two timestamps.
void AppendFlow(JsonWriter* w, bool start, uint64_t id, uint32_t pid,
                uint32_t tid, double ts_seconds) {
  w->BeginObject().Key("name").String("wr").Key("cat").String("wr");
  w->Key("ph").String(start ? "s" : "f");
  if (!start) w->Key("bp").String("e");
  w->Key("id").Uint(id).Key("pid").Uint(pid).Key("tid").Uint(tid);
  w->Key("ts").Number(Micros(ts_seconds));
  w->EndObject();
}

/// One "i" (instant) event on a thread row (scope "t").
void AppendInstant(JsonWriter* w, const std::string& name, uint32_t pid,
                   uint32_t tid, double ts_seconds) {
  w->BeginObject().Key("name").String(name).Key("ph").String("i");
  w->Key("s").String("t").Key("pid").Uint(pid).Key("tid").Uint(tid);
  w->Key("ts").Number(Micros(ts_seconds));
  w->EndObject();
}

/// "M" metadata event naming a process or thread row.
void AppendNameMeta(JsonWriter* w, const char* what, uint32_t pid, int tid,
                    const std::string& name) {
  BeginEvent(w, what, "M", pid);
  if (tid >= 0) w->Key("tid").Uint(static_cast<uint32_t>(tid));
  w->Key("args").BeginObject().Key("name").String(name).EndObject();
  w->EndObject();
}

/// Emits the utilization counter track of one host from its activity
/// timeline. Fabric time zero is the network-phase barrier, so samples are
/// shifted by `offset_seconds`.
void AppendUtilization(JsonWriter* w, const std::string& name, uint32_t pid,
                       const TimeSeries& series, double offset_seconds) {
  const std::vector<double>& buckets = series.buckets();
  const double width = series.bucket_seconds();
  if (buckets.empty() || width <= 0) return;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double rate_mb = buckets[b] / width / 1e6;
    AppendCounter(w, name, pid, offset_seconds + static_cast<double>(b) * width,
                  rate_mb);
  }
  // Close the track so the last bucket does not extend forever.
  AppendCounter(w, name, pid,
                offset_seconds + static_cast<double>(buckets.size()) * width,
                0.0);
}

/// Per-host binding-constraint counter tracks: one stacked "C" row per host
/// whose series are the average number of flows bound by each constraint the
/// host owns (its saturated egress port, its saturated ingress port, or its
/// message-rate ceiling) over the congestion-report buckets. Perfetto colors
/// the series distinctly, so ingress pile-ups (incast) read as a solid band
/// on the victim host's row.
void AppendConstraintTracks(JsonWriter* w, const SpanDataset& data,
                            double offset_seconds) {
  const CongestionReport rep = ComputeCongestion(data, CongestionOptions());
  if (rep.totals.labeled_total() <= 0 || rep.bucket_seconds <= 0) return;
  for (const HostCongestionTimeline& h : rep.hosts) {
    double any = 0;
    for (size_t b = 0; b < h.egress_bound.size(); ++b) {
      any += h.egress_bound[b] + h.ingress_bound[b] + h.msg_rate_bound[b];
    }
    if (any <= 0) continue;
    const size_t buckets = h.egress_bound.size();
    for (size_t b = 0; b <= buckets; ++b) {
      // One trailing all-zero sample closes the track.
      const double e = b < buckets ? h.egress_bound[b] / rep.bucket_seconds : 0;
      const double in =
          b < buckets ? h.ingress_bound[b] / rep.bucket_seconds : 0;
      const double mr =
          b < buckets ? h.msg_rate_bound[b] / rep.bucket_seconds : 0;
      BeginEvent(w, "bound flows", "C", h.host);
      w->Key("ts").Number(Micros(offset_seconds + rep.t_begin +
                                 static_cast<double>(b) * rep.bucket_seconds));
      w->Key("args").BeginObject().Key("egress").Number(e);
      w->Key("ingress").Number(in).Key("msg_rate").Number(mr);
      w->EndObject().EndObject();
    }
  }
}

/// Receiver rows get a tid far above any partitioning thread's 1+thread.
constexpr uint32_t kReceiverTid = 1000;
/// Fault-window rows sit below the receiver row.
constexpr uint32_t kFaultTid = 1001;

/// Renders every windowed fault of `schedule` as a slice on the affected
/// machine's fault row. Windows are on the network-pass clock, so they are
/// shifted to the barrier like the fabric counters. Ordinal-keyed QP faults
/// have no window and are visible through span retry args instead.
void AppendFaultWindows(JsonWriter* w, const FaultSchedule& schedule,
                        uint32_t nm, double offset_seconds) {
  std::set<uint32_t> rows;
  for (const FaultEvent& e : schedule.events) {
    if (e.kind == FaultKind::kQpError) continue;
    const uint32_t lo = e.machine == FaultEvent::kAllMachines ? 0 : e.machine;
    const uint32_t hi =
        e.machine == FaultEvent::kAllMachines ? nm : e.machine + 1;
    for (uint32_t m = lo; m < hi && m < nm; ++m) {
      rows.insert(m);
      const double factor = e.kind == FaultKind::kLinkFlap ? 0.0 : e.factor;
      AppendSlice(w, "fault: " + FaultKindName(e.kind), m, kFaultTid,
                  offset_seconds + e.start_seconds, e.duration_seconds,
                  [&] { w->Key("factor").Number(factor); });
    }
  }
  for (uint32_t m : rows) {
    AppendNameMeta(w, "thread_name", m, static_cast<int>(kFaultTid),
                   "fault windows");
  }
}

/// Renders the top spans of the report's recorder as sender/receiver slices
/// joined by flow arrows. Span timestamps are fabric-relative, so they are
/// shifted to the network-phase barrier like the utilization counters.
void AppendSpanEvents(JsonWriter* w, const SpanDataset& data,
                      size_t max_spans, double offset_seconds) {
  std::vector<WrSpan> spans = TopSpansByDuration(data, max_spans);
  std::sort(spans.begin(), spans.end(),
            [](const WrSpan& a, const WrSpan& b) { return a.id < b.id; });

  std::set<std::pair<uint32_t, uint32_t>> sender_rows;
  std::set<uint32_t> receiver_rows;
  for (const WrSpan& s : spans) {
    if (!s.complete()) continue;
    const double posted = s.stage[static_cast<int>(SpanStage::kPosted)];
    const double admitted =
        s.stage[static_cast<int>(SpanStage::kFabricAdmitted)];
    const double delivered = s.stage[static_cast<int>(SpanStage::kDelivered)];
    const double completed = s.stage[static_cast<int>(SpanStage::kCompleted)];
    const uint32_t sender_tid = 1 + s.thread;
    sender_rows.insert({s.machine, sender_tid});
    receiver_rows.insert(s.dst);

    auto args = [&] {
      w->Key("slot").Uint(s.slot).Key("src").Uint(s.src).Key("dst").Uint(s.dst);
      w->Key("wire_bytes").Number(s.wire_bytes).Key("pull").Bool(s.pull);
      w->Key("credit_wait_s")
          .Number(s.StageSeconds(SpanStage::kCreditAcquired));
      w->Key("fabric_s").Number(s.StageSeconds(SpanStage::kDelivered));
      if (s.retries > 0 || s.retry_delay_seconds > 0) {
        w->Key("retries").Uint(s.retries);
        w->Key("retry_delay_s").Number(s.retry_delay_seconds);
      }
    };
    const std::string name = "wr " + std::to_string(s.id) + " -> m" +
                             std::to_string(s.dst) +
                             (s.pull ? " (pull)" : "");
    AppendSlice(w, name, s.machine, sender_tid, offset_seconds + posted,
                admitted - posted, args);
    AppendFlow(w, /*start=*/true, s.id, s.machine, sender_tid,
               offset_seconds + posted);

    const double recv_end =
        s.recv_end != kSpanUnset ? std::max(completed, s.recv_end) : completed;
    AppendSlice(w, "wr " + std::to_string(s.id) + " recv", s.dst,
                kReceiverTid, offset_seconds + delivered,
                recv_end - delivered);
    AppendFlow(w, /*start=*/false, s.id, s.dst, kReceiverTid,
               offset_seconds + delivered);
  }

  for (const auto& row : sender_rows) {
    AppendNameMeta(w, "thread_name", row.first, static_cast<int>(row.second),
                   "part thread " + std::to_string(row.second - 1));
  }
  for (uint32_t m : receiver_rows) {
    AppendNameMeta(w, "thread_name", m, static_cast<int>(kReceiverTid),
                   "receiver core");
  }

  // Constraint-change instants: one "i" marker on the sender's thread row
  // every time a rendered span's flow switches binding constraint mid-life
  // (the moment another flow's arrival or drain moved the bottleneck).
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> flow_rows;
  for (const WrSpan& s : spans) {
    if (s.complete() && s.flow != 0) {
      flow_rows[s.flow] = {s.machine, 1 + s.thread};
    }
  }
  std::map<uint64_t, const FlowSegment*> prev_seg;
  for (const FlowSegment& g : data.segments) {
    if (g.bound == RateConstraint::kNone) continue;
    auto row = flow_rows.find(g.flow);
    if (row == flow_rows.end()) continue;
    const FlowSegment*& prev = prev_seg[g.flow];
    if (prev != nullptr &&
        (prev->bound != g.bound || prev->bound_host != g.bound_host)) {
      const std::string name =
          "wr flow " + std::to_string(g.flow) + " bound: " +
          RateConstraintName(prev->bound) + "@" +
          std::to_string(prev->bound_host) + " -> " +
          RateConstraintName(g.bound) + "@" + std::to_string(g.bound_host);
      AppendInstant(w, name, row->second.first, row->second.second,
                    offset_seconds + g.t0);
    }
    prev = &g;
  }
}

}  // namespace

std::string ChromeTraceJson(const ReplayReport& report,
                            const MetricsRegistry* metrics,
                            const ChromeTraceOptions& options) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("displayTimeUnit").String("ms");
  if (!options.label.empty()) {
    w.Key("otherData").BeginObject().Key("label").String(options.label);
    w.EndObject();
  }
  w.Key("traceEvents").BeginArray();
  const uint32_t nm = static_cast<uint32_t>(report.machine_phases.size());

  // Barrier starts: each phase begins globally when the slowest machine has
  // finished the previous one.
  const double hist_start = 0.0;
  const double net_start = report.phases.histogram_seconds;
  const double local_start = net_start + report.phases.network_partition_seconds;
  const double bp_start = local_start + report.phases.local_partition_seconds;

  for (uint32_t m = 0; m < nm; ++m) {
    AppendNameMeta(&w, "process_name", m, -1, "machine" + std::to_string(m));
    const PhaseTimes& p = report.machine_phases[m];
    AppendSlice(&w, "histogram", m, 0, hist_start, p.histogram_seconds);
    AppendSlice(&w, "network_partition", m, 0, net_start,
                p.network_partition_seconds);
    AppendSlice(&w, "local_partition", m, 0, local_start,
                p.local_partition_seconds);
    AppendSlice(&w, "build_probe", m, 0, bp_start, p.build_probe_seconds);
  }

  if (metrics != nullptr) {
    for (uint32_t h = 0; h < nm; ++h) {
      const std::string host = "fabric.host" + std::to_string(h);
      const TimeSeries* egress =
          metrics->FindTimeSeries(host + ".egress_active_bytes");
      const TimeSeries* ingress =
          metrics->FindTimeSeries(host + ".ingress_active_bytes");
      if (egress != nullptr) {
        AppendUtilization(&w, "egress MB/s", h, *egress, net_start);
      }
      if (ingress != nullptr) {
        AppendUtilization(&w, "ingress MB/s", h, *ingress, net_start);
      }
    }
  }

  if (options.fault_schedule != nullptr && !options.fault_schedule->empty()) {
    AppendFaultWindows(&w, *options.fault_schedule, nm, net_start);
  }

  if (report.spans != nullptr && options.max_spans > 0) {
    const SpanDataset data = report.spans->Snapshot();
    AppendSpanEvents(&w, data, options.max_spans, net_start);
    AppendConstraintTracks(&w, data, net_start);
  }

  w.EndArray().EndObject();
  return out;
}

std::string ChromeTraceJson(const ReplayReport& report,
                            const MetricsRegistry* metrics) {
  return ChromeTraceJson(report, metrics, ChromeTraceOptions());
}

Status WriteChromeTraceFile(const std::string& path, const ReplayReport& report,
                            const MetricsRegistry* metrics,
                            const ChromeTraceOptions& options) {
  return WriteStringToFile(path, ChromeTraceJson(report, metrics, options));
}

Status WriteChromeTraceFile(const std::string& path, const ReplayReport& report,
                            const MetricsRegistry* metrics) {
  return WriteChromeTraceFile(path, report, metrics, ChromeTraceOptions());
}

}  // namespace rdmajoin
