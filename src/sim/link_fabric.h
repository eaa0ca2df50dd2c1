#ifndef RDMAJOIN_SIM_LINK_FABRIC_H_
#define RDMAJOIN_SIM_LINK_FABRIC_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/fabric.h"
#include "sim/rate_sharing.h"
#include "util/indexed_heap.h"
#include "util/ring_queue.h"

namespace rdmajoin {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TimeSeries;

/// Fluid network model of the rack: one switch, per-host port limits.
///
/// Traffic is aggregated into one FIFO queue per ordered (src, dst) machine
/// pair, and each active link serves its message queue in order. A link's
/// rate is the minimum of an equal share of its source's egress capacity,
/// an equal share of its destination's ingress capacity, and the head
/// message's size times the message rate. This is the paper's model
/// assumption (Eq. 1: the per-host bandwidth is shared equally among
/// concurrent transfers). It is not work-conserving: capacity a link cannot
/// use at one endpoint is not handed to its siblings. Rates change only when
/// a link activates or drains, a host's capacity scale changes, or a head of
/// another size takes over -- not per message -- which preserves per-message
/// completion times for the double-buffering credit dynamics.
///
/// The replay is event-driven. A link's head is lazy: it stores its bytes
/// left at the time it was last brought up to date and its rate since then,
/// and is materialised only when it drains or its rate or label changes. A
/// heap of head drain times keyed by (time, link index) answers
/// NextCompletionTime in O(1), and AdvanceTo touches only the links that
/// drain at an instant plus the ones the reshare re-levels, so a network
/// partitioning pass costs O(log links) per event rather than O(links).
///
/// Resharing is incremental: the model maintains per-host active-link
/// counts (the share denominators) and a sorted index of active links.
/// Activation, drain and a capacity change re-level just the links touching
/// the affected hosts; a head pop that leaves its queue non-empty only
/// refreshes that one link's message-rate cap, because every other link's
/// rate is already exact. A link whose (rate, bound, bound_host) did not
/// change is left untouched. tests/link_fabric_reference_test.cc replays
/// seeded schedules through a per-step, full-recompute reference fabric and
/// requires identical rates.
class LinkFabric {
 public:
  using MessageId = uint64_t;
  static constexpr MessageId kInvalidMessage = 0;
  struct Completion {
    MessageId id;
    uint64_t cookie;
    double time;
  };

  explicit LinkFabric(const FabricConfig& config);
  LinkFabric(const LinkFabric&) = delete;
  LinkFabric& operator=(const LinkFabric&) = delete;

  const FabricConfig& config() const { return config_; }

  /// Enqueues a message of `bytes` bytes at virtual time `now` (monotone
  /// non-decreasing across calls). Messages on the same (src, dst) link
  /// complete in FIFO order.
  ///
  /// `bytes` must be positive: a zero-byte (or negative, or NaN) message is
  /// rejected with kInvalidMessage in every build mode -- nothing is queued
  /// and nothing is counted in the delivery statistics.
  MessageId Enqueue(uint32_t src, uint32_t dst, double bytes, double now,
                    uint64_t cookie = 0);

  /// Attaches observability instrumentation reporting into `registry` under
  /// `<prefix>.`: per-host delivered-byte counters
  /// (`<prefix>.host<h>.egress_bytes` / `.ingress_bytes`), per-host activity
  /// timelines (`.egress_active_bytes` / `.ingress_active_bytes`), a
  /// queued-message gauge (`<prefix>.active_flows`), a message counter and a
  /// message-size histogram. `registry` must outlive the fabric; call before
  /// enqueuing.
  void EnableMetrics(MetricsRegistry* registry, const std::string& prefix,
                     double utilization_bucket_seconds);

  /// Attaches a per-flow rate-segment observer (see FlowTelemetry in
  /// sim/fabric.h). Only the head message of each link queue moves, so
  /// segments are reported for heads only. `telemetry` must outlive the
  /// fabric; call before enqueuing.
  void EnableFlowTelemetry(FlowTelemetry* telemetry) { telemetry_ = telemetry; }

  /// Scales `host`'s port capacities (fault injection: degraded or flapping
  /// links, src/fault/). Multiplied into the configured egress/ingress
  /// capacities at every rate recompute; 1.0 is the exact nominal behaviour
  /// and 0 stalls the host's links (callers must eventually restore it).
  /// Takes effect at the current fabric time (advance first).
  void SetHostCapacityScale(uint32_t host, double egress_scale,
                            double ingress_scale);

  /// Earliest time at which AdvanceTo would hand out a completion: the
  /// earliest head drain plus the base latency, or a drained message still
  /// in its latency stage if that one is due sooner; +infinity if idle.
  /// Advancing to an earlier time only moves heads and delivers nothing, so
  /// a caller that waits for deliveries wakes exactly at this time (a head
  /// that rounding re-keys past its drain time is the one exception: the
  /// advance then delivers nothing, and this time moves later).
  double NextCompletionTime() const;

  /// Advances to time `t`, appending completions due by `t` in time order.
  void AdvanceTo(double t, std::vector<Completion>* completed);

  size_t queued_messages() const { return queued_; }
  double total_bytes_delivered() const { return bytes_delivered_; }
  uint64_t messages_delivered() const { return messages_delivered_; }

  /// Current service rate of the (src, dst) link; 0 if idle.
  double LinkRate(uint32_t src, uint32_t dst) const;

  /// Number of rate recomputations triggered so far (reshare cost metering
  /// for bench/micro_replay_engine.cc).
  uint64_t reshares() const { return reshares_; }
  /// Total link-rate assignments performed across all reshares; re-levelling
  /// only the affected links keeps this well below reshares * active_links.
  uint64_t reshared_links() const { return reshared_links_; }
  /// Drain instants: batches of head pops, each followed by one reshare.
  uint64_t fabric_steps() const { return fabric_steps_; }
  /// Lazy link materialisations: a link brought up to the current time
  /// because its head drained or its rate or label changed.
  uint64_t link_updates() const { return link_updates_; }

 private:
  struct Message {
    MessageId id;
    uint64_t cookie;
    double size;
  };
  /// The head's current constant-rate interval (FlowTelemetry), not yet
  /// reported; flow == kInvalidMessage when none is open.
  struct OpenSegment {
    MessageId flow = kInvalidMessage;
    double t0 = 0;
    double t1 = 0;
    double rate = 0;
    RateConstraint bound = RateConstraint::kNone;
    uint32_t bound_host = 0;
  };
  struct Link {
    uint32_t src;
    uint32_t dst;
    std::deque<Message> queue;
    /// Head bytes left at `updated_at`; from then on the head drains at
    /// `rate`, so `head_remaining - rate * (t - updated_at)` are left at t.
    double head_remaining = 0;
    double updated_at = 0;
    double rate = 0;
    RateConstraint bound = RateConstraint::kNone;  // binding at last reshare
    uint32_t bound_host = 0;                       // host owning that constraint
    OpenSegment segment;
    bool active() const { return !queue.empty(); }
  };
  /// A rate assignment computed by a reshare, applied after it.
  struct RateChange {
    uint32_t idx;
    double rate;
    RateConstraint bound;
    uint32_t bound_host;
  };

  Link& link(uint32_t src, uint32_t dst) { return links_[src * config_.num_hosts + dst]; }
  const Link& link(uint32_t src, uint32_t dst) const {
    return links_[src * config_.num_hosts + dst];
  }
  double LinkCap(const Link& l) const;
  /// Equal-share rate for link `idx` from the maintained per-host counts.
  void RecomputeOneLinkEqualShare(uint32_t idx);
  /// Queues `idx`'s new rate and label unless they equal the current ones.
  void Assign(uint32_t idx, double rate, RateConstraint bound,
              uint32_t bound_host);
  /// Applies the queued changes in ascending link order: materialise under
  /// the old rate, switch, re-key the drain heap.
  void ApplyRateChanges();
  void ActivateLink(uint32_t idx);
  void DeactivateLink(uint32_t idx);
  void MarkDirty(uint32_t host);
  /// Re-levels links affected by dirty hosts / changed heads and clears the
  /// dirty sets.
  void ReshareDirty();
  /// Runs the fabric to `t`, leaving every completion in latency_.
  void Step(double t);
  /// Pops every head drained at now_ (ascending link order).
  void PopDrained();
  /// When `l`'s head drains at its current rate (> 0).
  static double DrainTime(const Link& l) {
    return l.updated_at + l.head_remaining / l.rate;
  }
  /// Whether a head with `remaining` bytes left at now_ counts as drained.
  bool Drained(const Link& l, double remaining) const;
  /// Brings `l`'s head, segment and activity metrics up to now_.
  void Materialize(Link& l);
  /// Re-enters link `idx` into the drain heap at its current drain time, or
  /// removes it when it is idle or stalled at rate 0.
  void Rekey(uint32_t idx);
  /// Extends `l`'s open segment over [l.updated_at, now_) when the head still
  /// moves at the same rate and label, else reports it and opens a new one.
  void ExtendSegment(Link& l);
  /// Reports `l`'s open segment, if any, and closes it.
  void ReportSegment(Link& l);

  /// Per-host metric handles; empty when metrics are disabled.
  struct HostMetrics {
    Counter* egress_bytes;
    Counter* ingress_bytes;
    TimeSeries* egress_activity;
    TimeSeries* ingress_activity;
  };

  FabricConfig config_;
  /// Per-host fault-injection capacity scales (all 1.0 when no fault).
  std::vector<double> egress_scale_;
  std::vector<double> ingress_scale_;
  double now_ = 0.0;
  MessageId next_id_ = 1;
  std::vector<Link> links_;
  /// Indices of active links, kept sorted ascending so every scan visits
  /// links in the same order as iterating links_ directly (segment emission
  /// order is part of the determinism contract).
  std::vector<uint32_t> active_idx_;
  /// Active-link counts per host (equal-share denominators).
  std::vector<uint32_t> src_cnt_;
  std::vector<uint32_t> dst_cnt_;
  /// Hosts whose constraint set changed since the last reshare, and links
  /// whose head (and with it the message-rate cap) changed.
  std::vector<uint8_t> host_dirty_;
  std::vector<uint32_t> dirty_hosts_;
  std::vector<uint32_t> head_dirty_idx_;
  /// Active links with rate > 0, keyed by head drain time.
  IndexedMinHeap drains_;
  /// Upper bound on the pop window (Drained) of any link in drains_, in
  /// seconds past its drain time; reset when the heap empties.
  double max_window_ = 0;
  /// Scratch buffers kept across calls to avoid per-event allocation.
  std::vector<uint32_t> pop_scan_scratch_;
  std::vector<RateChange> changes_;
  uint64_t reshares_ = 0;
  uint64_t reshared_links_ = 0;
  uint64_t fabric_steps_ = 0;
  uint64_t link_updates_ = 0;
  size_t queued_ = 0;
  double bytes_delivered_ = 0;
  uint64_t messages_delivered_ = 0;
  /// Messages drained but not yet handed out by AdvanceTo (still within
  /// base latency, or drained by Enqueue's catch-up). Pops push them at
  /// now_ + base latency with now_ monotone, so they are in time order and
  /// the front is the earliest.
  RingQueue<Completion> latency_;
  // Metric handles (all null / empty when metrics are disabled).
  std::vector<HostMetrics> host_metrics_;
  FlowTelemetry* telemetry_ = nullptr;
  Gauge* queued_gauge_ = nullptr;
  Counter* messages_counter_ = nullptr;
  Histogram* message_bytes_histogram_ = nullptr;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_SIM_LINK_FABRIC_H_
