#include "timing/span_query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "util/json.h"

namespace rdmajoin {

namespace {

constexpr double kSumTolerance = 1e-9;

/// Top-k spans by `value(span)` descending, ties by ascending id; spans for
/// which `value` returns kSpanUnset are skipped.
template <typename ValueFn>
std::vector<WrSpan> TopSpans(const SpanDataset& dataset, size_t k,
                             ValueFn value) {
  std::vector<const WrSpan*> candidates;
  candidates.reserve(dataset.spans.size());
  for (const WrSpan& s : dataset.spans) {
    if (value(s) != kSpanUnset) candidates.push_back(&s);
  }
  const size_t n = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + n,
                    candidates.end(),
                    [&value](const WrSpan* a, const WrSpan* b) {
                      const double va = value(*a), vb = value(*b);
                      if (va != vb) return va > vb;
                      return a->id < b->id;
                    });
  std::vector<WrSpan> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(*candidates[i]);
  return out;
}

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::string Seconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

std::vector<WrSpan> TopSpansByDuration(const SpanDataset& dataset, size_t k) {
  return TopSpans(dataset, k,
                  [](const WrSpan& s) { return s.duration(); });
}

std::vector<WrSpan> TopSpansByStage(const SpanDataset& dataset, SpanStage stage,
                                    size_t k) {
  return TopSpans(dataset, k,
                  [stage](const WrSpan& s) { return s.StageSeconds(stage); });
}

StageStats ComputeStageStats(const SpanDataset& dataset, SpanStage stage) {
  StageStats stats;
  stats.stage = stage;
  std::vector<double> values;
  values.reserve(dataset.spans.size());
  for (const WrSpan& s : dataset.spans) {
    const double v = s.StageSeconds(stage);
    if (v == kSpanUnset) continue;
    values.push_back(v);
    stats.total += v;
  }
  std::sort(values.begin(), values.end());
  stats.count = values.size();
  if (!values.empty()) {
    stats.p50 = NearestRank(values, 50);
    stats.p90 = NearestRank(values, 90);
    stats.p99 = NearestRank(values, 99);
    stats.max = values.back();
  }
  return stats;
}

std::vector<FlowSegment> ConcurrentFlowSegments(const SpanDataset& dataset,
                                                const WrSpan& span) {
  std::vector<FlowSegment> out;
  const double t0 = span.stage[static_cast<int>(SpanStage::kFabricAdmitted)];
  const double t1 = span.stage[static_cast<int>(SpanStage::kDelivered)];
  if (t0 == kSpanUnset || t1 == kSpanUnset || !(t1 > t0)) return out;
  for (const FlowSegment& g : dataset.segments) {
    if (g.flow == span.flow) continue;
    if (g.t1 <= t0 || g.t0 >= t1) continue;
    if (g.src != span.src && g.dst != span.dst) continue;
    out.push_back(g);
  }
  return out;
}

double CreditWaitSeconds(const SpanDataset& dataset, uint32_t machine,
                         uint32_t thread) {
  double sum = 0;
  for (const WrSpan& s : dataset.spans) {
    if (s.machine != machine || s.thread != thread) continue;
    const double v = s.StageSeconds(SpanStage::kCreditAcquired);
    if (v != kSpanUnset) sum += v;
  }
  return sum;
}

std::vector<double> LeadThreadCreditWaitByMachine(const SpanDataset& dataset,
                                                  uint32_t num_machines) {
  std::vector<double> out(num_machines, 0.0);
  std::vector<double> best_finish(num_machines, -1.0);
  // Thread marks are in (machine, thread) order; a strict > keeps the first
  // maximum, matching the replay's lead-thread tie-break.
  for (const ThreadMark& t : dataset.threads) {
    if (t.machine >= num_machines) continue;
    if (t.finish_seconds > best_finish[t.machine]) {
      best_finish[t.machine] = t.finish_seconds;
      out[t.machine] = t.credit_stall_seconds;
    }
  }
  return out;
}

SpanInvariantReport CheckSpanInvariants(const SpanDataset& dataset) {
  SpanInvariantReport report;
  auto violate = [&report](const std::string& what) {
    report.violations.push_back(what);
  };

  // 1 + 2: completeness, causal order, stage-sum decomposition.
  for (const WrSpan& s : dataset.spans) {
    ++report.spans_checked;
    const std::string tag = "span " + std::to_string(s.id);
    if (!s.complete()) {
      violate(tag + ": missing lifecycle stage (posted WR without exactly one "
                    "delivery and completion)");
      continue;
    }
    bool ordered = true;
    for (int i = 1; i < kNumSpanStages; ++i) {
      if (s.stage[i] + kSumTolerance < s.stage[i - 1]) {
        violate(tag + ": stage " +
                SpanStageName(static_cast<SpanStage>(i)) + " at " +
                std::to_string(s.stage[i]) + " precedes " +
                SpanStageName(static_cast<SpanStage>(i - 1)) + " at " +
                std::to_string(s.stage[i - 1]));
        ordered = false;
      }
    }
    if (!ordered) continue;
    double sum = 0;
    for (int i = 1; i < kNumSpanStages; ++i) {
      sum += s.StageSeconds(static_cast<SpanStage>(i));
    }
    if (std::abs(sum - s.duration()) > kSumTolerance) {
      violate(tag + ": stage intervals sum to " + std::to_string(sum) +
              " but span duration is " + std::to_string(s.duration()));
    }
  }

  // 3: summed credit waits reproduce the replay's per-thread stall totals.
  if (dataset.spans_dropped == 0 && !dataset.threads.empty()) {
    std::map<std::pair<uint32_t, uint32_t>, double> span_wait;
    for (const WrSpan& s : dataset.spans) {
      const double v = s.StageSeconds(SpanStage::kCreditAcquired);
      if (v != kSpanUnset) span_wait[{s.machine, s.thread}] += v;
    }
    for (const ThreadMark& t : dataset.threads) {
      const double from_spans = span_wait[{t.machine, t.thread}];
      if (std::abs(from_spans - t.credit_stall_seconds) > kSumTolerance) {
        violate("machine " + std::to_string(t.machine) + " thread " +
                std::to_string(t.thread) + ": summed span credit-wait " +
                std::to_string(from_spans) +
                " != replay credit-stall " +
                std::to_string(t.credit_stall_seconds));
      }
    }
  }

  // 4: integrating a flow's rate segments reproduces its wire bytes.
  if (dataset.segments_dropped == 0 && !dataset.segments.empty() &&
      dataset.spans_dropped == 0) {
    std::unordered_map<uint64_t, double> flow_bytes;
    for (const FlowSegment& g : dataset.segments) {
      flow_bytes[g.flow] += g.rate * (g.t1 - g.t0);
    }
    for (const WrSpan& s : dataset.spans) {
      if (s.flow == 0) continue;
      auto it = flow_bytes.find(s.flow);
      const double moved = it == flow_bytes.end() ? 0.0 : it->second;
      // The fabric declares a flow drained within 1e-9 s worth of rate of
      // the end, so the integral may undercount by a hair.
      const double tol = std::max(1e-6 * s.wire_bytes, 64.0);
      if (std::abs(moved - s.wire_bytes) > tol) {
        violate("span " + std::to_string(s.id) + " flow " +
                std::to_string(s.flow) + ": rate segments integrate to " +
                std::to_string(moved) + " bytes, wire_bytes is " +
                std::to_string(s.wire_bytes));
      }
    }
  }

  // 5: execution-layer ordinal sanity.
  for (const ExecDeviceCounts& d : dataset.devices) {
    for (int op = 0; op < 4; ++op) {
      if (d.completed[op] > d.posted[op]) {
        violate("device " + std::to_string(d.device) + " opcode " +
                std::to_string(op) + ": " + std::to_string(d.completed[op]) +
                " completions for " + std::to_string(d.posted[op]) +
                " posted work requests");
      }
      if (d.polled[op] > d.completed[op]) {
        violate("device " + std::to_string(d.device) + " opcode " +
                std::to_string(op) + ": " + std::to_string(d.polled[op]) +
                " polled for " + std::to_string(d.completed[op]) +
                " delivered completions");
      }
    }
  }
  return report;
}

std::string FormatSpanReport(const SpanDataset& dataset, size_t top_k) {
  std::ostringstream out;
  out << "spans: " << dataset.spans.size() << " held ("
      << dataset.spans_recorded << " recorded, " << dataset.spans_dropped
      << " dropped), " << dataset.segments.size() << " flow segments ("
      << dataset.segments_recorded << " recorded, "
      << dataset.segments_dropped << " dropped)";
  if (dataset.late_stage_updates > 0) {
    out << ", " << dataset.late_stage_updates << " late stage updates";
  }
  out << "\n";

  out << "\nstage latencies (seconds):\n";
  out << "  stage             count        p50        p90        p99        max      total\n";
  for (int i = 1; i < kNumSpanStages; ++i) {
    const StageStats st =
        ComputeStageStats(dataset, static_cast<SpanStage>(i));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-16s %6llu %10.6f %10.6f %10.6f %10.6f %10.6f\n",
                  SpanStageName(static_cast<SpanStage>(i)),
                  static_cast<unsigned long long>(st.count), st.p50, st.p90,
                  st.p99, st.max, st.total);
    out << line;
  }

  // Datasets without constraint labels (schema v1 / recording off) keep the
  // pre-forensics report text byte-for-byte.
  bool has_labels = false;
  for (const FlowSegment& g : dataset.segments) {
    if (g.bound != RateConstraint::kNone) {
      has_labels = true;
      break;
    }
  }
  auto print_spans = [&out, &dataset, has_labels](
                         const std::vector<WrSpan>& spans, const char* metric,
                         auto value) {
    for (const WrSpan& s : spans) {
      out << "  #" << s.id << " m" << s.machine << "/t" << s.thread << " slot "
          << s.slot << " " << s.src << "->" << s.dst << " "
          << static_cast<uint64_t>(s.wire_bytes) << " B"
          << (s.pull ? " (pull)" : "") << ": " << metric << " "
          << Seconds(value(s)) << " s (posted " << Seconds(s.stage[0])
          << ")";
      if (has_labels && s.flow != 0) {
        const ConstraintBreakdown b = FlowConstraintBreakdown(dataset, s.flow);
        out << " bound=" << RateConstraintName(b.dominant());
      }
      out << "\n";
    }
  };
  out << "\ntop " << top_k << " spans by duration:\n";
  print_spans(TopSpansByDuration(dataset, top_k), "duration",
              [](const WrSpan& s) { return s.duration(); });
  out << "\ntop " << top_k << " spans by credit wait:\n";
  print_spans(TopSpansByStage(dataset, SpanStage::kCreditAcquired, top_k),
              "credit wait", [](const WrSpan& s) {
                return s.StageSeconds(SpanStage::kCreditAcquired);
              });

  const SpanInvariantReport inv = CheckSpanInvariants(dataset);
  out << "\ninvariants: ";
  if (inv.ok()) {
    out << "OK (" << inv.spans_checked << " spans checked)\n";
  } else {
    out << inv.violations.size() << " violation(s):\n";
    for (const std::string& v : inv.violations) out << "  " << v << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Bottleneck forensics.
// ---------------------------------------------------------------------------

namespace {

constexpr int kNumConstraints = 5;

int ConstraintIndex(RateConstraint c) { return static_cast<int>(c); }

}  // namespace

RateConstraint ConstraintBreakdown::dominant() const {
  int best = 0;
  double best_v = 0;
  for (int i = 1; i < kNumConstraints; ++i) {
    if (seconds[i] > best_v) {
      best_v = seconds[i];
      best = i;
    }
  }
  return static_cast<RateConstraint>(best);
}

ConstraintBreakdown FlowConstraintBreakdown(const SpanDataset& dataset,
                                            uint64_t flow) {
  ConstraintBreakdown b;
  for (const FlowSegment& g : dataset.segments) {
    if (g.flow != flow) continue;
    b.seconds[ConstraintIndex(g.bound)] += g.t1 - g.t0;
  }
  return b;
}

ConstraintBreakdown DatasetConstraintBreakdown(const SpanDataset& dataset) {
  ConstraintBreakdown b;
  for (const FlowSegment& g : dataset.segments) {
    b.seconds[ConstraintIndex(g.bound)] += g.t1 - g.t0;
  }
  return b;
}

CongestionReport ComputeCongestion(const SpanDataset& dataset,
                                   const CongestionOptions& options) {
  CongestionReport report;
  const std::vector<FlowSegment>& segs = dataset.segments;
  if (segs.empty()) return report;

  double t0 = std::numeric_limits<double>::infinity();
  double t1 = -std::numeric_limits<double>::infinity();
  uint32_t max_host = 0;
  for (const FlowSegment& g : segs) {
    t0 = std::min(t0, g.t0);
    t1 = std::max(t1, g.t1);
    max_host = std::max(max_host, std::max(g.src, g.dst));
  }
  report.t_begin = t0;
  report.t_end = t1;
  report.totals = DatasetConstraintBreakdown(dataset);

  const size_t buckets = std::max<size_t>(1, options.timeline_buckets);
  const double span = t1 > t0 ? t1 - t0 : 1.0;
  report.bucket_seconds = span / static_cast<double>(buckets);
  report.hosts.resize(max_host + 1);
  for (uint32_t h = 0; h <= max_host; ++h) {
    report.hosts[h].host = h;
    report.hosts[h].egress_bound.assign(buckets, 0.0);
    report.hosts[h].ingress_bound.assign(buckets, 0.0);
    report.hosts[h].msg_rate_bound.assign(buckets, 0.0);
  }

  // Per-host constraint timelines: flow-seconds of each segment spread over
  // the buckets it overlaps, attributed to the constraint-owning host.
  for (const FlowSegment& g : segs) {
    if (g.bound == RateConstraint::kNone || g.bound_host > max_host) continue;
    std::vector<double>* track = nullptr;
    switch (g.bound) {
      case RateConstraint::kSenderEgress:
        track = &report.hosts[g.bound_host].egress_bound;
        break;
      case RateConstraint::kReceiverIngress:
        track = &report.hosts[g.bound_host].ingress_bound;
        break;
      case RateConstraint::kMessageRate:
        track = &report.hosts[g.bound_host].msg_rate_bound;
        break;
      default:
        break;
    }
    if (track == nullptr) continue;
    const double bs = report.bucket_seconds;
    size_t b0 = static_cast<size_t>(std::max(0.0, (g.t0 - t0) / bs));
    size_t b1 = static_cast<size_t>(std::max(0.0, (g.t1 - t0) / bs));
    b0 = std::min(b0, buckets - 1);
    b1 = std::min(b1, buckets - 1);
    for (size_t b = b0; b <= b1; ++b) {
      const double lo = std::max(g.t0, t0 + static_cast<double>(b) * bs);
      const double hi = std::min(g.t1, t0 + static_cast<double>(b + 1) * bs);
      if (hi > lo) (*track)[b] += hi - lo;
    }
  }

  // Incast episodes: sweep the ingress-bound segments per receiver and open
  // a window whenever >= incast_min_senders distinct sources are
  // simultaneously ingress-bound there.
  struct Ev {
    double t;
    uint8_t add;  // removals sort before additions at equal times
    uint32_t idx;
  };
  std::vector<Ev> evs;
  for (uint32_t i = 0; i < segs.size(); ++i) {
    const FlowSegment& g = segs[i];
    if (g.bound != RateConstraint::kReceiverIngress || g.bound_host != g.dst ||
        g.dst > max_host || !(g.t1 > g.t0)) {
      continue;
    }
    evs.push_back({g.t0, 1, i});
    evs.push_back({g.t1, 0, i});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.add != b.add) return a.add < b.add;
    return a.idx < b.idx;
  });

  const uint32_t min_senders = std::max<uint32_t>(1, options.incast_min_senders);
  std::vector<std::map<uint32_t, uint32_t>> senders(max_host + 1);
  std::vector<double> sum_rate(max_host + 1, 0.0);
  std::vector<double> win_start(max_host + 1, -1.0);
  std::vector<uint32_t> win_peak(max_host + 1, 0);
  std::vector<double> win_bytes(max_host + 1, 0.0);
  std::vector<uint8_t> touched(max_host + 1, 0);
  std::vector<uint32_t> touched_list;
  double prev_t = t0;
  size_t i = 0;
  while (i < evs.size()) {
    const double t = evs[i].t;
    if (t > prev_t) {
      for (uint32_t h = 0; h <= max_host; ++h) {
        if (win_start[h] >= 0) win_bytes[h] += sum_rate[h] * (t - prev_t);
      }
    }
    touched_list.clear();
    while (i < evs.size() && evs[i].t == t) {
      const Ev& e = evs[i++];
      const FlowSegment& g = segs[e.idx];
      const uint32_t h = g.dst;
      if (e.add) {
        ++senders[h][g.src];
        sum_rate[h] += g.rate;
      } else {
        auto it = senders[h].find(g.src);
        if (it != senders[h].end() && --it->second == 0) senders[h].erase(it);
        sum_rate[h] -= g.rate;
      }
      if (!touched[h]) {
        touched[h] = 1;
        touched_list.push_back(h);
      }
    }
    for (uint32_t h : touched_list) {
      touched[h] = 0;
      const uint32_t distinct = static_cast<uint32_t>(senders[h].size());
      if (win_start[h] < 0 && distinct >= min_senders) {
        win_start[h] = t;
        win_peak[h] = distinct;
        win_bytes[h] = 0;
      } else if (win_start[h] >= 0 && distinct >= min_senders) {
        win_peak[h] = std::max(win_peak[h], distinct);
      } else if (win_start[h] >= 0 && distinct < min_senders) {
        report.incasts.push_back(
            {h, win_start[h], t, win_peak[h], win_bytes[h]});
        win_start[h] = -1.0;
      }
    }
    prev_t = t;
  }
  std::sort(report.incasts.begin(), report.incasts.end(),
            [](const IncastEvent& a, const IncastEvent& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.t1 < b.t1;
            });
  return report;
}

std::vector<FlowSlowEntry> RankSlowFlows(const SpanDataset& dataset, size_t k) {
  std::vector<FlowSlowEntry> out;
  for (const WrSpan& s : TopSpansByDuration(dataset, k)) {
    FlowSlowEntry e;
    e.span = s;
    if (s.flow != 0) e.transit = FlowConstraintBreakdown(dataset, s.flow);
    const double cw = s.StageSeconds(SpanStage::kCreditAcquired);
    const double tr = s.StageSeconds(SpanStage::kDelivered);
    e.credit_wait_seconds = cw == kSpanUnset ? 0 : cw;
    e.transit_seconds = tr == kSpanUnset ? 0 : tr;
    e.verdict = e.transit.dominant();
    if (e.credit_wait_seconds > e.transit_seconds &&
        e.credit_wait_seconds > 0) {
      e.verdict = RateConstraint::kCreditStarved;
    }
    e.transit.seconds[ConstraintIndex(RateConstraint::kCreditStarved)] =
        e.credit_wait_seconds;
    out.push_back(e);
  }
  return out;
}

std::string FormatCongestionReport(const SpanDataset& dataset,
                                   const CongestionReport& report,
                                   size_t top_k) {
  std::ostringstream out;
  out << "congestion over [" << Seconds(report.t_begin) << ", "
      << Seconds(report.t_end) << "] s, " << dataset.segments.size()
      << " flow segments\n";

  out << "\nconstraint totals (flow-seconds):\n";
  const double total = report.totals.labeled_total();
  for (int c = 1; c < kNumConstraints; ++c) {
    const double v = report.totals.seconds[c];
    if (v <= 0 && c == ConstraintIndex(RateConstraint::kCreditStarved)) {
      continue;  // never emitted by the fabric
    }
    char line[96];
    std::snprintf(line, sizeof(line), "  %-9s %12.6f s %5.1f%%\n",
                  RateConstraintName(static_cast<RateConstraint>(c)), v,
                  total > 0 ? 100.0 * v / total : 0.0);
    out << line;
  }
  if (total <= 0) {
    out << "  (no constraint labels recorded -- schema v1 dataset)\n";
  }

  if (!report.hosts.empty() && total > 0) {
    out << "\nper-host congestion timelines (" << Seconds(report.bucket_seconds)
        << " s buckets; E=egress-bound I=ingress-bound M=msg-rate-bound "
           ".=unconstrained, lowercase <50% of a flow):\n";
    for (const HostCongestionTimeline& h : report.hosts) {
      out << "  host " << h.host << " [";
      for (size_t b = 0; b < h.egress_bound.size(); ++b) {
        const double e = h.egress_bound[b];
        const double in = h.ingress_bound[b];
        const double m = h.msg_rate_bound[b];
        const double best = std::max({e, in, m});
        char c = '.';
        if (best > 0) {
          if (best == e) {
            c = 'E';
          } else if (best == in) {
            c = 'I';
          } else {
            c = 'M';
          }
          // Lowercase marks buckets where the dominant constraint held less
          // than half a flow on average.
          if (best < 0.5 * report.bucket_seconds) {
            c = static_cast<char>(c - 'A' + 'a');
          }
        }
        out << c;
      }
      out << "]\n";
    }
  }

  out << "\nincast episodes (>= distinct ingress-bound senders on one "
         "receiver):\n";
  if (report.incasts.empty()) {
    out << "  (none)\n";
  } else {
    for (const IncastEvent& ev : report.incasts) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  host %u: [%0.6f, %0.6f] s, peak %u senders, %.0f B "
                    "delivered\n",
                    ev.dst, ev.t0, ev.t1, ev.peak_senders, ev.bytes);
      out << line;
    }
  }

  out << "\nwhy is this flow slow (top " << top_k << " spans by duration):\n";
  const std::vector<FlowSlowEntry> slow = RankSlowFlows(dataset, top_k);
  if (slow.empty()) out << "  (no complete spans)\n";
  for (const FlowSlowEntry& e : slow) {
    const WrSpan& s = e.span;
    out << "  #" << s.id << " m" << s.machine << "/t" << s.thread << " "
        << s.src << "->" << s.dst << " " << static_cast<uint64_t>(s.wire_bytes)
        << " B" << (s.pull ? " (pull)" : "") << ": duration "
        << Seconds(s.duration()) << " s (credit "
        << Seconds(e.credit_wait_seconds) << ", transit "
        << Seconds(e.transit_seconds) << ") verdict="
        << RateConstraintName(e.verdict);
    bool first = true;
    for (int c = 1; c < kNumConstraints; ++c) {
      const double v = e.transit.seconds[c];
      if (v <= 0) continue;
      out << (first ? " [" : " ")
          << RateConstraintName(static_cast<RateConstraint>(c)) << " "
          << Seconds(v);
      first = false;
    }
    if (!first) out << "]";
    out << "\n";
  }
  return out.str();
}

std::string CongestionReportToJson(const CongestionReport& report) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("version").Uint(1);
  w.Key("t_begin").Number(report.t_begin);
  w.Key("t_end").Number(report.t_end);
  w.Key("bucket_seconds").Number(report.bucket_seconds);
  w.Key("totals").BeginObject();
  for (int c = 1; c < kNumConstraints; ++c) {
    w.Key(RateConstraintName(static_cast<RateConstraint>(c)))
        .Number(report.totals.seconds[c]);
  }
  w.EndObject().Key("hosts").BeginArray();
  for (const HostCongestionTimeline& t : report.hosts) {
    w.BeginObject().Key("host").Uint(t.host);
    auto track = [&w](const char* name, const std::vector<double>& v) {
      w.Key(name).BeginArray();
      for (const double x : v) w.Number(x);
      w.EndArray();
    };
    track("egress_bound", t.egress_bound);
    track("ingress_bound", t.ingress_bound);
    track("msg_rate_bound", t.msg_rate_bound);
    w.EndObject();
  }
  w.EndArray().Key("incasts").BeginArray();
  for (const IncastEvent& ev : report.incasts) {
    w.BeginObject().Key("dst").Uint(ev.dst);
    w.Key("t0").Number(ev.t0).Key("t1").Number(ev.t1);
    w.Key("peak_senders").Uint(ev.peak_senders);
    w.Key("bytes").Number(ev.bytes).EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

ConstraintCheckContext ConstraintCheckContextFromFabric(
    const FabricConfig& fc) {
  ConstraintCheckContext ctx;
  ctx.num_hosts = fc.num_hosts;
  ctx.egress_bytes_per_sec = fc.EffectiveEgress();
  ctx.ingress_bytes_per_sec = fc.ingress_bytes_per_sec;
  ctx.message_rate_per_host = fc.message_rate_per_host;
  return ctx;
}

SpanInvariantReport CheckConstraintInvariants(
    const SpanDataset& dataset, const ConstraintCheckContext& ctx) {
  SpanInvariantReport report;
  constexpr size_t kMaxViolations = 64;
  bool suppressed = false;
  auto violate = [&report, &suppressed](const std::string& what) {
    if (report.violations.size() < kMaxViolations) {
      report.violations.push_back(what);
    } else if (!suppressed) {
      suppressed = true;
      report.violations.push_back("... further violations suppressed");
    }
  };
  const std::vector<FlowSegment>& segs = dataset.segments;

  // Span wire bytes per flow: reconstructs the per-flow message-rate cap.
  std::unordered_map<uint64_t, double> flow_wire;
  for (const WrSpan& s : dataset.spans) {
    if (s.flow != 0) flow_wire[s.flow] = s.wire_bytes;
  }

  // Pass 1 -- labeling rules, checked unconditionally.
  for (size_t i = 0; i < segs.size(); ++i) {
    const FlowSegment& g = segs[i];
    ++report.spans_checked;
    const std::string tag =
        "segment " + std::to_string(i) + " flow " + std::to_string(g.flow);
    if (g.t1 < g.t0) {
      violate(tag + ": t1 " + std::to_string(g.t1) + " precedes t0 " +
              std::to_string(g.t0));
      continue;
    }
    if (g.rate > 0 && g.bound == RateConstraint::kNone) {
      violate(tag + ": moving at " + std::to_string(g.rate) +
              " B/s with no binding constraint recorded");
      continue;
    }
    switch (g.bound) {
      case RateConstraint::kSenderEgress:
      case RateConstraint::kMessageRate:
        if (g.bound_host != g.src) {
          violate(tag + ": " + RateConstraintName(g.bound) +
                  " constraint owned by host " + std::to_string(g.bound_host) +
                  ", expected src " + std::to_string(g.src));
        }
        break;
      case RateConstraint::kReceiverIngress:
        if (g.bound_host != g.dst) {
          violate(tag + ": ingress constraint owned by host " +
                  std::to_string(g.bound_host) + ", expected dst " +
                  std::to_string(g.dst));
        }
        break;
      case RateConstraint::kCreditStarved:
        violate(tag + ": credit starvation is a span-level verdict, never a "
                      "fabric segment label");
        break;
      case RateConstraint::kNone:
        break;
    }
    if (ctx.num_hosts > 0 &&
        (g.src >= ctx.num_hosts || g.dst >= ctx.num_hosts)) {
      violate(tag + ": endpoints " + std::to_string(g.src) + "->" +
              std::to_string(g.dst) + " outside the " +
              std::to_string(ctx.num_hosts) + "-host fabric");
    }
  }

  // Pass 2 -- tightness: on every elementary interval between segment
  // boundaries, the labeled constraint must reproduce the segment's rate
  // from the reconstructed per-host state. Requires the full segment record.
  if (dataset.segments_dropped > 0 || segs.empty() || ctx.num_hosts == 0 ||
      !report.violations.empty()) {
    return report;
  }
  struct Ev {
    double t;
    uint8_t add;  // removals before additions at equal times
    uint32_t idx;
  };
  std::vector<Ev> evs;
  evs.reserve(2 * segs.size());
  for (uint32_t i = 0; i < segs.size(); ++i) {
    const FlowSegment& g = segs[i];
    if (!(g.t1 > g.t0)) continue;
    evs.push_back({g.t0, 1, i});
    evs.push_back({g.t1, 0, i});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.add != b.add) return a.add < b.add;
    return a.idx < b.idx;
  });

  const uint32_t num_hosts = ctx.num_hosts;
  std::vector<std::vector<uint32_t>> by_src(num_hosts), by_dst(num_hosts);
  auto remove_from = [](std::vector<uint32_t>& v, uint32_t idx) {
    for (size_t j = 0; j < v.size(); ++j) {
      if (v[j] == idx) {
        v[j] = v.back();
        v.pop_back();
        return;
      }
    }
  };
  std::vector<uint32_t> stamp(segs.size(), 0);
  uint32_t epoch = 0;
  std::vector<uint32_t> added, check, changed_hosts;
  std::vector<uint8_t> host_changed(num_hosts, 0);

  auto near = [](double a, double b) {
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    return std::abs(a - b) <= 64 * kRateEps * scale;
  };

  auto check_segment = [&](uint32_t idx, double tmid) {
    const FlowSegment& g = segs[idx];
    if (g.rate <= 0 || g.bound == RateConstraint::kNone) return;
    const double es =
        ctx.egress_scale ? ctx.egress_scale(g.src, tmid) : 1.0;
    const double is = ctx.ingress_scale ? ctx.ingress_scale(g.dst, tmid) : 1.0;
    const double egress_cap = ctx.egress_bytes_per_sec * es;
    const double ingress_cap = ctx.ingress_bytes_per_sec * is;
    bool cap_known = true;
    double cap = std::numeric_limits<double>::infinity();
    if (ctx.message_rate_per_host > 0) {
      auto it = flow_wire.find(g.flow);
      if (it != flow_wire.end()) {
        cap = it->second * ctx.message_rate_per_host;
      } else {
        cap_known = false;
      }
    }
    const std::string tag = "segment " + std::to_string(idx) + " flow " +
                            std::to_string(g.flow) + " [" +
                            std::to_string(g.t0) + ", " +
                            std::to_string(g.t1) + ")";
    if (cap_known && g.rate > cap * (1 + 64 * kRateEps)) {
      violate(tag + ": rate " + std::to_string(g.rate) +
              " exceeds the message-rate cap " + std::to_string(cap));
      return;
    }
    const double e_share =
        egress_cap / static_cast<double>(by_src[g.src].size());
    const double i_share =
        ingress_cap / static_cast<double>(by_dst[g.dst].size());
    if (g.rate > e_share * (1 + 64 * kRateEps) ||
        g.rate > i_share * (1 + 64 * kRateEps)) {
      violate(tag + ": rate " + std::to_string(g.rate) +
              " exceeds its fair share (egress " + std::to_string(e_share) +
              ", ingress " + std::to_string(i_share) + ")");
      return;
    }
    if (cap_known) {
      const double want = std::min(e_share, std::min(i_share, cap));
      if (!near(g.rate, want)) {
        violate(tag + ": rate " + std::to_string(g.rate) +
                " != equal-share minimum " + std::to_string(want));
        return;
      }
      const RateConstraint cls = ClassifyEqualShare(e_share, i_share, cap);
      if (cls != g.bound) {
        violate(tag + ": labeled " + RateConstraintName(g.bound) +
                " but the tight equal-share constraint is " +
                RateConstraintName(cls) + " (egress " +
                std::to_string(e_share) + ", ingress " +
                std::to_string(i_share) + ", cap " + std::to_string(cap) +
                ")");
      }
    } else {
      // Cap unreconstructable (span evicted): verify the labeled side only.
      if (g.bound == RateConstraint::kSenderEgress && !near(g.rate, e_share)) {
        violate(tag + ": labeled egress but rate " + std::to_string(g.rate) +
                " != egress share " + std::to_string(e_share));
      } else if (g.bound == RateConstraint::kReceiverIngress &&
                 !near(g.rate, i_share)) {
        violate(tag + ": labeled ingress but rate " +
                std::to_string(g.rate) + " != ingress share " +
                std::to_string(i_share));
      }
    }
  };

  size_t i = 0;
  while (i < evs.size()) {
    const double t = evs[i].t;
    added.clear();
    changed_hosts.clear();
    while (i < evs.size() && evs[i].t == t) {
      const Ev& e = evs[i++];
      const FlowSegment& g = segs[e.idx];
      if (g.src >= num_hosts || g.dst >= num_hosts) continue;
      if (e.add) {
        by_src[g.src].push_back(e.idx);
        by_dst[g.dst].push_back(e.idx);
        added.push_back(e.idx);
      } else {
        remove_from(by_src[g.src], e.idx);
        remove_from(by_dst[g.dst], e.idx);
      }
      if (!host_changed[g.src]) {
        host_changed[g.src] = 1;
        changed_hosts.push_back(g.src);
      }
      if (!host_changed[g.dst]) {
        host_changed[g.dst] = 1;
        changed_hosts.push_back(g.dst);
      }
    }
    for (uint32_t h : changed_hosts) host_changed[h] = 0;
    if (i >= evs.size()) break;
    const double t_next = evs[i].t;
    if (!(t_next > t)) continue;
    const double tmid = t + (t_next - t) * 0.5;
    // Stalled hosts (capacity scale 0) keep flows active without emitting
    // segments, so the fair-share denominators cannot be reconstructed.
    bool scale_zero = false;
    if (ctx.egress_scale || ctx.ingress_scale) {
      for (uint32_t h = 0; h < num_hosts && !scale_zero; ++h) {
        if (ctx.egress_scale && !(ctx.egress_scale(h, tmid) > 0)) {
          scale_zero = true;
        }
        if (ctx.ingress_scale && !(ctx.ingress_scale(h, tmid) > 0)) {
          scale_zero = true;
        }
      }
    }
    if (scale_zero) continue;
    ++epoch;
    check.clear();
    for (uint32_t idx : added) {
      if (stamp[idx] != epoch) {
        stamp[idx] = epoch;
        check.push_back(idx);
      }
    }
    for (uint32_t h : changed_hosts) {
      for (uint32_t idx : by_src[h]) {
        if (stamp[idx] != epoch) {
          stamp[idx] = epoch;
          check.push_back(idx);
        }
      }
      for (uint32_t idx : by_dst[h]) {
        if (stamp[idx] != epoch) {
          stamp[idx] = epoch;
          check.push_back(idx);
        }
      }
    }
    std::sort(check.begin(), check.end());
    for (uint32_t idx : check) {
      check_segment(idx, tmid);
      if (suppressed) return report;
    }
  }
  return report;
}

}  // namespace rdmajoin
