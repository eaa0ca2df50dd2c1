// Differential test of LinkFabric's event-driven replay against a per-step,
// full-recompute oracle. ReferenceFabric below is the fabric LinkFabric
// replaced, kept here as a test-only oracle: every step it finds the
// earliest head drain by scanning all active links, moves every link by
// rate * dt, reports segments one step at a time, and recomputes every
// link's equal share from scratch after each change. LinkFabric instead
// keeps lazy heads in a drain-time heap and re-levels only the links whose
// hosts changed. The same seeded schedule of enqueues, advances and capacity
// faults runs through both; completions must come out in the same order
// with the same ids and cookies, and each flow's rate segments must agree.
//
// Rates must agree exactly: both fabrics evaluate the same share
// expressions over the same per-host counts, so an incremental reshare that
// skipped a link it should have re-levelled shows up as a rate mismatch.
// Times agree to rounding (1e-9 relative), not bit for bit, because the
// lazy fabric computes a head's bytes left as rate * (t - t0) rather than as
// a sum of per-step decrements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/link_fabric.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

using Completion = LinkFabric::Completion;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-12;

class ReferenceFabric {
 public:
  explicit ReferenceFabric(const FabricConfig& config)
      : config_(config),
        egress_scale_(config.num_hosts, 1.0),
        ingress_scale_(config.num_hosts, 1.0),
        links_(static_cast<size_t>(config.num_hosts) * config.num_hosts) {
    for (uint32_t s = 0; s < config_.num_hosts; ++s) {
      for (uint32_t d = 0; d < config_.num_hosts; ++d) {
        link(s, d).src = s;
        link(s, d).dst = d;
      }
    }
  }

  void EnableFlowTelemetry(FlowTelemetry* telemetry) { telemetry_ = telemetry; }

  uint64_t Enqueue(uint32_t src, uint32_t dst, double bytes, double now,
                   uint64_t cookie) {
    if (!(bytes > 0)) return LinkFabric::kInvalidMessage;
    if (now > now_) {
      std::vector<Completion> buffered;
      AdvanceTo(now, &buffered);
      latency_.insert(latency_.end(), buffered.begin(), buffered.end());
    }
    Link& l = link(src, dst);
    const bool was_active = l.active();
    l.queue.push_back(Message{next_id_, cookie, bytes});
    if (!was_active) {
      l.head_remaining = bytes;
      RecomputeEveryRate();
    }
    return next_id_++;
  }

  void SetHostCapacityScale(uint32_t host, double egress, double ingress) {
    egress_scale_[host] = egress;
    ingress_scale_[host] = ingress;
    RecomputeEveryRate();
  }

  // The earliest delivery: a buffered completion, or a head's drain plus
  // the base latency (LinkFabric's rule; a drain alone delivers nothing).
  double NextCompletionTime() const {
    double best = kInf;
    for (const Completion& c : latency_) best = std::min(best, c.time);
    for (const Link& l : links_) {
      if (l.active() && l.rate > 0) {
        best = std::min(best, now_ + l.head_remaining / l.rate +
                                  config_.base_latency_seconds);
      }
    }
    return best;
  }

  void AdvanceTo(double t, std::vector<Completion>* completed) {
    if (t < now_) t = now_;
    std::vector<Completion> due;
    for (size_t i = 0; i < latency_.size();) {
      if (latency_[i].time <= t * (1 + kTimeEps) + kTimeEps) {
        due.push_back(latency_[i]);
        latency_[i] = latency_.back();
        latency_.pop_back();
      } else {
        ++i;
      }
    }
    while (now_ < t) {
      double next_drain = kInf;
      for (const Link& l : links_) {
        if (l.active() && l.rate > 0) {
          next_drain = std::min(next_drain, now_ + l.head_remaining / l.rate);
        }
      }
      const double step_end = std::min(t, next_drain);
      const double dt = step_end - now_;
      if (dt > 0) {
        for (Link& l : links_) {
          if (!l.active() || l.rate <= 0) continue;
          l.head_remaining -= l.rate * dt;
          if (telemetry_ != nullptr) ExtendSegment(l, step_end);
        }
        now_ = step_end;
      }
      if (!(next_drain <= t * (1 + kTimeEps) + kTimeEps)) break;
      bool popped = false;
      for (Link& l : links_) {
        while (l.active() && l.rate > 0 &&
               (l.head_remaining <= l.queue.front().size * 1e-12 + 1e-9 * l.rate ||
                now_ + l.head_remaining / l.rate <= now_)) {
          if (telemetry_ != nullptr) ReportSegment(l);
          const Message m = l.queue.front();
          l.queue.pop_front();
          popped = true;
          due.push_back(Completion{m.id, m.cookie, now_ + config_.base_latency_seconds});
          if (l.active()) l.head_remaining = l.queue.front().size;
        }
      }
      if (popped) RecomputeEveryRate();
    }
    now_ = t;
    for (size_t i = 0; i < due.size();) {
      if (due[i].time > t * (1 + kTimeEps) + kTimeEps) {
        latency_.push_back(due[i]);
        due[i] = due.back();
        due.pop_back();
      } else {
        ++i;
      }
    }
    std::sort(due.begin(), due.end(), [](const Completion& a, const Completion& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.id < b.id;
    });
    completed->insert(completed->end(), due.begin(), due.end());
  }

  double LinkRate(uint32_t src, uint32_t dst) const { return link(src, dst).rate; }

 private:
  struct Message {
    uint64_t id;
    uint64_t cookie;
    double size;
  };
  struct Segment {
    uint64_t flow = LinkFabric::kInvalidMessage;
    double t0 = 0;
    double t1 = 0;
    double rate = 0;
    RateConstraint bound = RateConstraint::kNone;
    uint32_t bound_host = 0;
  };
  struct Link {
    uint32_t src = 0;
    uint32_t dst = 0;
    std::deque<Message> queue;
    double head_remaining = 0;
    double rate = 0;
    RateConstraint bound = RateConstraint::kNone;
    uint32_t bound_host = 0;
    Segment segment;
    bool active() const { return !queue.empty(); }
  };

  Link& link(uint32_t s, uint32_t d) { return links_[s * config_.num_hosts + d]; }
  const Link& link(uint32_t s, uint32_t d) const {
    return links_[s * config_.num_hosts + d];
  }

  double LinkCap(const Link& l) const {
    if (config_.message_rate_per_host <= 0) return kInf;
    return l.queue.front().size * config_.message_rate_per_host;
  }

  void RecomputeEveryRate() {
    std::vector<uint32_t> src_cnt(config_.num_hosts, 0);
    std::vector<uint32_t> dst_cnt(config_.num_hosts, 0);
    for (Link& l : links_) {
      l.rate = 0;
      l.bound = RateConstraint::kNone;
      l.bound_host = 0;
      if (!l.active()) continue;
      ++src_cnt[l.src];
      ++dst_cnt[l.dst];
    }
    const double egress = config_.EffectiveEgress();
    for (Link& l : links_) {
      if (!l.active()) continue;
      const double e = egress * egress_scale_[l.src] / src_cnt[l.src];
      const double i =
          config_.ingress_bytes_per_sec * ingress_scale_[l.dst] / dst_cnt[l.dst];
      const double cap = LinkCap(l);
      l.rate = std::min({e, i, cap});
      l.bound = ClassifyEqualShare(e, i, cap);
      l.bound_host = l.bound == RateConstraint::kReceiverIngress ? l.dst : l.src;
    }
  }

  void ExtendSegment(Link& l, double step_end) {
    Segment& s = l.segment;
    const uint64_t head = l.queue.front().id;
    if (s.flow == head && s.t1 == now_ && s.rate == l.rate && s.bound == l.bound &&
        s.bound_host == l.bound_host) {
      s.t1 = step_end;
      return;
    }
    ReportSegment(l);
    s = Segment{head, now_, step_end, l.rate, l.bound, l.bound_host};
  }

  void ReportSegment(Link& l) {
    Segment& s = l.segment;
    if (s.flow == LinkFabric::kInvalidMessage) return;
    telemetry_->OnFlowSegment(s.flow, l.src, l.dst, s.t0, s.t1, s.rate, s.bound,
                              s.bound_host);
    s.flow = LinkFabric::kInvalidMessage;
  }

  FabricConfig config_;
  std::vector<double> egress_scale_;
  std::vector<double> ingress_scale_;
  std::vector<Link> links_;
  std::vector<Completion> latency_;
  double now_ = 0;
  uint64_t next_id_ = 1;
  FlowTelemetry* telemetry_ = nullptr;
};

struct Seg {
  uint64_t flow;
  uint32_t src;
  uint32_t dst;
  double t0;
  double t1;
  double rate;
  RateConstraint bound;
  uint32_t bound_host;
};

class SegmentLog : public FlowTelemetry {
 public:
  void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst, double t0,
                     double t1, double rate, RateConstraint bound,
                     uint32_t bound_host) override {
    segs.push_back(Seg{flow_id, src, dst, t0, t1, rate, bound, bound_host});
  }
  std::vector<Seg> segs;
};

struct ScheduleRun {
  std::vector<Completion> completions;
  std::vector<double> rate_probes;
  /// Grouped by flow, each flow's segments in report (= time) order.
  std::vector<Seg> segments;
};

struct Variant {
  double message_rate;  // 5/s binds below 200-byte heads at 1000 B/s
  double base_latency;
};

constexpr uint32_t kHosts = 6;
// Longest jump of the schedule's clock to a completion; keeps virtual time
// below ~1e6 s, where one ulp is still well inside the 1e-9 s pop window.
constexpr double kHorizonSeconds = 1000.0;

FabricConfig VariantConfig(const Variant& v) {
  FabricConfig f;
  f.num_hosts = kHosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  f.message_rate_per_host = v.message_rate;
  f.base_latency_seconds = v.base_latency;
  return f;
}

// One seeded schedule: enqueues of 1 B .. 100 KB, advances to the next
// completion or by a random step, and capacity-scale faults at 0 (stall),
// 1e-9, 1 and 2. Identical RNG consumption for both fabrics.
template <typename Fabric>
ScheduleRun RunSchedule(const Variant& v, uint64_t seed) {
  Fabric fabric(VariantConfig(v));
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  Random rng(seed);
  ScheduleRun run;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t op = rng.Uniform(10);
    if (op < 6) {
      const uint32_t src = static_cast<uint32_t>(rng.Uniform(kHosts));
      uint32_t dst = static_cast<uint32_t>(rng.Uniform(kHosts));
      if (dst == src) dst = (dst + 1) % kHosts;
      const double bytes = (1.0 + static_cast<double>(rng.Uniform(1000))) *
                           std::pow(10.0, static_cast<double>(rng.Uniform(3)));
      fabric.Enqueue(src, dst, bytes, t, static_cast<uint64_t>(i));
    } else if (op < 8) {
      // A head crawling at a 1e-9 scale drains ~1e8 s out; jumping there
      // would leave the clock where one ulp exceeds the 1e-9 s pop window
      // and the two roundings batch heads one call apart. Stay in range.
      const double nc = fabric.NextCompletionTime();
      t = nc < t + kHorizonSeconds ? nc : t + 0.001;
      fabric.AdvanceTo(t, &run.completions);
    } else if (op == 8) {
      t += rng.NextDouble() * 0.01;
      fabric.AdvanceTo(t, &run.completions);
    } else {
      static const double kScales[] = {1.0, 0.0, 1e-9, 2.0};
      const uint32_t host = static_cast<uint32_t>(rng.Uniform(kHosts));
      const double egress = kScales[rng.Uniform(4)];
      const double ingress = kScales[rng.Uniform(4)];
      fabric.SetHostCapacityScale(host, egress, ingress);
    }
    for (uint32_t s = 0; s < kHosts; ++s) {
      for (uint32_t d = 0; d < kHosts; ++d) {
        run.rate_probes.push_back(fabric.LinkRate(s, d));
      }
    }
  }
  for (uint32_t h = 0; h < kHosts; ++h) fabric.SetHostCapacityScale(h, 1.0, 1.0);
  fabric.AdvanceTo(t + 1e9, &run.completions);
  run.segments = std::move(log.segs);
  std::stable_sort(run.segments.begin(), run.segments.end(),
                   [](const Seg& a, const Seg& b) { return a.flow < b.flow; });
  return run;
}

bool Near(double a, double b) {
  if (a == b) return true;
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

void ExpectRunsMatch(const ScheduleRun& ref, const ScheduleRun& lazy) {
  ASSERT_EQ(ref.completions.size(), lazy.completions.size());
  for (size_t i = 0; i < ref.completions.size(); ++i) {
    const Completion& a = ref.completions[i];
    const Completion& b = lazy.completions[i];
    ASSERT_EQ(a.id, b.id) << "completion " << i;
    EXPECT_EQ(a.cookie, b.cookie) << "completion " << i;
    EXPECT_TRUE(Near(a.time, b.time))
        << "completion " << i << ": " << a.time << " vs " << b.time;
  }
  ASSERT_EQ(ref.rate_probes.size(), lazy.rate_probes.size());
  for (size_t i = 0; i < ref.rate_probes.size(); ++i) {
    EXPECT_EQ(ref.rate_probes[i], lazy.rate_probes[i]) << "rate probe " << i;
  }
  ASSERT_EQ(ref.segments.size(), lazy.segments.size());
  for (size_t i = 0; i < ref.segments.size(); ++i) {
    const Seg& a = ref.segments[i];
    const Seg& b = lazy.segments[i];
    ASSERT_EQ(a.flow, b.flow) << "segment " << i;
    EXPECT_EQ(a.src, b.src) << "segment " << i;
    EXPECT_EQ(a.dst, b.dst) << "segment " << i;
    EXPECT_EQ(RateConstraintName(a.bound), RateConstraintName(b.bound))
        << "segment " << i;
    EXPECT_EQ(a.bound_host, b.bound_host) << "segment " << i;
    EXPECT_TRUE(Near(a.t0, b.t0)) << "segment " << i << ": " << a.t0 << " vs " << b.t0;
    EXPECT_TRUE(Near(a.t1, b.t1)) << "segment " << i << ": " << a.t1 << " vs " << b.t1;
    EXPECT_EQ(a.rate, b.rate) << "segment " << i;
  }
}

// Readable (and padding-free) parameter text for the test listing.
void PrintTo(const Variant& v, std::ostream* os) {
  *os << "equal-share msg_rate=" << v.message_rate
      << " latency=" << v.base_latency;
}

class LinkFabricReferenceTest : public ::testing::TestWithParam<Variant> {};

TEST_P(LinkFabricReferenceTest, LazyFabricMatchesPerStepReplay) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    const ScheduleRun ref = RunSchedule<ReferenceFabric>(GetParam(), seed);
    const ScheduleRun lazy = RunSchedule<LinkFabric>(GetParam(), seed);
    ASSERT_GT(ref.completions.size(), 100u);
    ExpectRunsMatch(ref, lazy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LinkFabricReferenceTest,
    ::testing::Values(Variant{5.0, 1e-6}, Variant{0.0, 0.0}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(info.param.message_rate > 0 ? "EqualShareMsgCapLatency"
                                                     : "EqualSharePlain");
    });

}  // namespace
}  // namespace rdmajoin
