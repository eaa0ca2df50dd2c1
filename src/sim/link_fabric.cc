#include "sim/link_fabric.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "util/metrics.h"

namespace rdmajoin {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative tolerance for time comparisons; rate labels use kRateEps from
// sim/rate_sharing.h instead.
constexpr double kTimeEps = 1e-12;
}  // namespace

LinkFabric::LinkFabric(const FabricConfig& config) : config_(config) {
  assert(config.Validate().ok());
  egress_scale_.assign(config_.num_hosts, 1.0);
  ingress_scale_.assign(config_.num_hosts, 1.0);
  src_cnt_.assign(config_.num_hosts, 0);
  dst_cnt_.assign(config_.num_hosts, 0);
  host_dirty_.assign(config_.num_hosts, 0);
  links_.resize(static_cast<size_t>(config_.num_hosts) * config_.num_hosts);
  drains_ = IndexedMinHeap(links_.size());
  for (uint32_t s = 0; s < config_.num_hosts; ++s) {
    for (uint32_t d = 0; d < config_.num_hosts; ++d) {
      link(s, d).src = s;
      link(s, d).dst = d;
    }
  }
}

void LinkFabric::EnableMetrics(MetricsRegistry* registry,
                               const std::string& prefix,
                               double utilization_bucket_seconds) {
  host_metrics_.clear();
  host_metrics_.reserve(config_.num_hosts);
  for (uint32_t h = 0; h < config_.num_hosts; ++h) {
    const std::string host = prefix + ".host" + std::to_string(h);
    host_metrics_.push_back(HostMetrics{
        registry->GetCounter(host + ".egress_bytes"),
        registry->GetCounter(host + ".ingress_bytes"),
        registry->GetTimeSeries(host + ".egress_active_bytes",
                                utilization_bucket_seconds),
        registry->GetTimeSeries(host + ".ingress_active_bytes",
                                utilization_bucket_seconds)});
  }
  queued_gauge_ = registry->GetGauge(prefix + ".active_flows");
  messages_counter_ = registry->GetCounter(prefix + ".messages");
  message_bytes_histogram_ = registry->GetHistogram(prefix + ".message_bytes");
}

void LinkFabric::SetHostCapacityScale(uint32_t host, double egress_scale,
                                      double ingress_scale) {
  assert(host < config_.num_hosts);
  assert(egress_scale >= 0 && ingress_scale >= 0);
  egress_scale_[host] = egress_scale;
  ingress_scale_[host] = ingress_scale;
  MarkDirty(host);
  ReshareDirty();
}

double LinkFabric::LinkCap(const Link& l) const {
  if (config_.message_rate_per_host <= 0 || l.queue.empty()) return kInf;
  // A stream of messages of the head's size cannot exceed size * msg_rate.
  return l.queue.front().size * config_.message_rate_per_host;
}

void LinkFabric::RecomputeOneLinkEqualShare(uint32_t idx) {
  const Link& l = links_[idx];
  // Scale factors are exactly 1.0 without fault injection, so the shares
  // are bit-identical to the unscaled expressions.
  const double e_share =
      config_.EffectiveEgress() * egress_scale_[l.src] / src_cnt_[l.src];
  const double i_share =
      config_.ingress_bytes_per_sec * ingress_scale_[l.dst] / dst_cnt_[l.dst];
  const double cap = LinkCap(l);
  const RateConstraint bound = ClassifyEqualShare(e_share, i_share, cap);
  Assign(idx, std::min({e_share, i_share, cap}), bound,
         bound == RateConstraint::kReceiverIngress ? l.dst : l.src);
}

void LinkFabric::Assign(uint32_t idx, double rate, RateConstraint bound,
                        uint32_t bound_host) {
  const Link& l = links_[idx];
  // An unchanged assignment leaves the link's lazy state alone: only links
  // whose rate or label moved are materialised.
  if (rate == l.rate && bound == l.bound && bound_host == l.bound_host) return;
  changes_.push_back(RateChange{idx, rate, bound, bound_host});
}

void LinkFabric::ApplyRateChanges() {
  // Ascending link order, whatever order queued them: materialising can
  // report a segment, and the report order is part of the determinism
  // contract.
  std::sort(changes_.begin(), changes_.end(),
            [](const RateChange& a, const RateChange& b) { return a.idx < b.idx; });
  for (const RateChange& c : changes_) {
    Link& l = links_[c.idx];
    Materialize(l);  // under the old rate and label
    l.rate = c.rate;
    l.bound = c.bound;
    l.bound_host = c.bound_host;
    Rekey(c.idx);
  }
  changes_.clear();
}

void LinkFabric::ActivateLink(uint32_t idx) {
  active_idx_.insert(std::upper_bound(active_idx_.begin(), active_idx_.end(), idx),
                     idx);
  ++src_cnt_[links_[idx].src];
  ++dst_cnt_[links_[idx].dst];
}

void LinkFabric::DeactivateLink(uint32_t idx) {
  active_idx_.erase(std::lower_bound(active_idx_.begin(), active_idx_.end(), idx));
  --src_cnt_[links_[idx].src];
  --dst_cnt_[links_[idx].dst];
  links_[idx].rate = 0;
  links_[idx].bound = RateConstraint::kNone;
  links_[idx].bound_host = 0;
}

void LinkFabric::MarkDirty(uint32_t host) {
  if (host_dirty_[host] != 0) return;
  host_dirty_[host] = 1;
  dirty_hosts_.push_back(host);
}

void LinkFabric::ReshareDirty() {
  if (dirty_hosts_.empty() && head_dirty_idx_.empty()) return;
  ++reshares_;
  if (!dirty_hosts_.empty()) {
    // The per-host denominators changed: re-level every active link
    // touching a dirty host. Links touching only clean hosts keep their
    // stored rates, which a full recompute would reproduce bit-for-bit.
    for (uint32_t idx : active_idx_) {
      const Link& l = links_[idx];
      if (host_dirty_[l.src] == 0 && host_dirty_[l.dst] == 0) continue;
      RecomputeOneLinkEqualShare(idx);
      ++reshared_links_;
    }
  }
  for (uint32_t idx : head_dirty_idx_) {
    const Link& l = links_[idx];
    if (!l.active()) continue;  // drained later in the same batch
    if (host_dirty_[l.src] != 0 || host_dirty_[l.dst] != 0) continue;
    // Only this link's message-rate cap changed (new head size); the
    // shares are unchanged, so this is an O(1) refresh.
    RecomputeOneLinkEqualShare(idx);
    ++reshared_links_;
  }
  ApplyRateChanges();
  for (uint32_t h : dirty_hosts_) host_dirty_[h] = 0;
  dirty_hosts_.clear();
  head_dirty_idx_.clear();
}

LinkFabric::MessageId LinkFabric::Enqueue(uint32_t src, uint32_t dst, double bytes,
                                          double now, uint64_t cookie) {
  assert(src < config_.num_hosts && dst < config_.num_hosts && src != dst);
  // Reject empty messages identically in debug and release builds so the
  // delivery statistics stay trustworthy everywhere.
  if (!(bytes > 0)) return kInvalidMessage;
  assert(now + kTimeEps >= now_);
  // Bring service up to date; completions that come due stay in latency_
  // (with their correct times) until the next AdvanceTo hands them out.
  if (now > now_) Step(now);
  Link& l = link(src, dst);
  const bool was_active = l.active();
  l.queue.push_back(Message{next_id_, cookie, bytes});
  ++queued_;
  if (queued_gauge_ != nullptr) {
    queued_gauge_->Set(static_cast<double>(queued_));
    messages_counter_->Increment();
    message_bytes_histogram_->Observe(bytes);
  }
  if (!was_active) {
    l.head_remaining = bytes;
    l.updated_at = now_;
    ActivateLink(static_cast<uint32_t>(src * config_.num_hosts + dst));
    MarkDirty(src);
    MarkDirty(dst);
    ReshareDirty();
  }
  return next_id_++;
}

double LinkFabric::NextCompletionTime() const {
  // A head that drains at d is delivered at d + base latency (PopDrained),
  // so the drain heap's top plus the latency is the earliest delivery of a
  // message still on the wire.
  double best = drains_.empty() ? kInf
                                : drains_.top_key() + config_.base_latency_seconds;
  if (!latency_.empty()) best = std::min(best, latency_.front().time);
  return best;
}

void LinkFabric::AdvanceTo(double t, std::vector<Completion>* completed) {
  assert(t + kTimeEps >= now_);
  if (t < now_) t = now_;
  Step(t);
  // Completions whose latency has elapsed by t are delivered; later ones stay.
  const size_t first = completed->size();
  const double due_by = t * (1 + kTimeEps) + kTimeEps;
  while (!latency_.empty() && latency_.front().time <= due_by) {
    completed->push_back(latency_.front());
    latency_.pop_front();
  }
  // Equal times come from one drain instant; order them by id.
  std::sort(completed->begin() + static_cast<std::ptrdiff_t>(first),
            completed->end(), [](const Completion& a, const Completion& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.id < b.id;
            });
}

void LinkFabric::Step(double t) {
  while (now_ < t) {
    // The earliest head drain is the heap's top; nothing else moves the
    // clock, and links that do not drain are left lazy.
    const double next_drain = drains_.empty() ? kInf : drains_.top_key();
    const double step_end = std::min(t, next_drain);
    if (step_end > now_) now_ = step_end;
    if (!(next_drain <= t * (1 + kTimeEps) + kTimeEps)) break;  // No drain before t.
    PopDrained();
    ReshareDirty();
  }
  now_ = t;
}

bool LinkFabric::Drained(const Link& l, double remaining) const {
  // The second disjunct guarantees forward progress far from t=0: when now_
  // is large enough that the residual's drain time rounds to now_ itself
  // (now_ + eta == now_ in doubles), the clock cannot advance past this
  // head, so it must pop now -- without this, a residual above the size
  // threshold but below one ulp of now_ spins the advance loop forever.
  return remaining <= l.queue.front().size * 1e-12 + 1e-9 * l.rate ||
         now_ + remaining / l.rate <= now_;
}

void LinkFabric::PopDrained() {
  ++fabric_steps_;
  // Every head within its Drained window pops in this batch. The window of a
  // link in the heap is at most max_window_ past its drain time, so the
  // candidates are the heap entries up to that bound (plus a margin for the
  // rounding of drain times far from t=0); each is checked exactly, and
  // only the ones that pop are materialised.
  pop_scan_scratch_.clear();
  drains_.CollectAtMost(now_ + max_window_ + now_ * kTimeEps, &pop_scan_scratch_);
  // Ascending link order, as a scan of the whole link table would pop them.
  std::sort(pop_scan_scratch_.begin(), pop_scan_scratch_.end());
  for (uint32_t idx : pop_scan_scratch_) {
    Link& l = links_[idx];
    if (!Drained(l, l.head_remaining - l.rate * (now_ - l.updated_at))) {
      // Rounding can leave a head above its window at a drain time that has
      // already passed. Re-key it from now_, which is how a step computes
      // the next drain: now_ + remaining / rate, past now_ by Drained's
      // second disjunct, so the clock keeps moving.
      if (DrainTime(l) <= now_) {
        Materialize(l);
        Rekey(idx);
      }
      continue;
    }
    Materialize(l);
    // Pop every head that has drained; successors start immediately at the
    // same rate (no set change while the queue stays non-empty).
    do {
      if (telemetry_ != nullptr) ReportSegment(l);
      const Message m = l.queue.front();
      l.queue.pop_front();
      --queued_;
      bytes_delivered_ += m.size;
      ++messages_delivered_;
      if (!host_metrics_.empty()) {
        host_metrics_[l.src].egress_bytes->Add(m.size);
        host_metrics_[l.dst].ingress_bytes->Add(m.size);
        queued_gauge_->Set(static_cast<double>(queued_));
      }
      latency_.push_back(Completion{m.id, m.cookie, now_ + config_.base_latency_seconds});
      if (l.active()) {
        l.head_remaining = l.queue.front().size;
        // The message-rate cap depends on the head size; refresh if it
        // could bind.
        if (config_.message_rate_per_host > 0 &&
            (head_dirty_idx_.empty() || head_dirty_idx_.back() != idx)) {
          head_dirty_idx_.push_back(idx);
        }
      } else {
        DeactivateLink(idx);
        MarkDirty(l.src);
        MarkDirty(l.dst);
      }
    } while (l.active() && Drained(l, l.head_remaining));
    Rekey(idx);
  }
}

void LinkFabric::Materialize(Link& l) {
  ++link_updates_;
  const double dt = now_ - l.updated_at;
  if (l.rate > 0 && dt > 0) {
    const double moved = l.rate * dt;
    l.head_remaining -= moved;
    if (!host_metrics_.empty()) {
      host_metrics_[l.src].egress_activity->AddRange(l.updated_at, now_, moved);
      host_metrics_[l.dst].ingress_activity->AddRange(l.updated_at, now_, moved);
    }
    if (telemetry_ != nullptr) ExtendSegment(l);
  }
  l.updated_at = now_;
}

void LinkFabric::Rekey(uint32_t idx) {
  const Link& l = links_[idx];
  if (l.active() && l.rate > 0) {
    drains_.Set(idx, DrainTime(l));
    // Twice the Drained window in seconds: room for the rounding of both
    // sides of the comparison.
    max_window_ = std::max(
        max_window_, 2 * (l.queue.front().size * 1e-12 / l.rate + 1e-9));
    return;
  }
  drains_.Erase(idx);
  if (drains_.empty()) max_window_ = 0;
}

void LinkFabric::ExtendSegment(Link& l) {
  // Compared lazily, at the link's next materialisation after a reshare:
  // reshares at one instant that end where they started leave the open
  // segment whole.
  OpenSegment& s = l.segment;
  const MessageId head = l.queue.front().id;
  if (s.flow == head && s.t1 == l.updated_at && s.rate == l.rate &&
      s.bound == l.bound && s.bound_host == l.bound_host) {
    s.t1 = now_;
    return;
  }
  ReportSegment(l);
  s = OpenSegment{head, l.updated_at, now_, l.rate, l.bound, l.bound_host};
}

void LinkFabric::ReportSegment(Link& l) {
  OpenSegment& s = l.segment;
  if (s.flow == kInvalidMessage) return;
  telemetry_->OnFlowSegment(s.flow, l.src, l.dst, s.t0, s.t1, s.rate, s.bound,
                            s.bound_host);
  s.flow = kInvalidMessage;
}

double LinkFabric::LinkRate(uint32_t src, uint32_t dst) const {
  return link(src, dst).rate;
}

}  // namespace rdmajoin
