#include "sched/policy.h"

#include <algorithm>
#include <limits>

namespace rdmajoin {

std::string_view SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kSerial:
      return "serial";
    case SchedPolicy::kPhaseAligned:
      return "phase-aligned";
    case SchedPolicy::kOverlap:
      return "overlap";
    case SchedPolicy::kWeightedFair:
      return "weighted-fair";
  }
  return "unknown";
}

StatusOr<SchedPolicy> ParseSchedPolicy(std::string_view name) {
  for (size_t i = 0; i < kNumSchedPolicies; ++i) {
    const SchedPolicy p = static_cast<SchedPolicy>(i);
    if (name == SchedPolicyName(p)) return p;
  }
  return Status::InvalidArgument("unknown scheduling policy: '" +
                                 std::string(name) +
                                 "' (serial, phase-aligned, overlap, "
                                 "weighted-fair)");
}

namespace {

/// One query at a time, in admission order.
class SerialPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kSerial; }
  void Decide(const std::vector<QueryView>& active,
              std::vector<StageDecision>* decisions) const override {
    decisions->assign(active.size(), StageDecision{});
    if (active.empty()) return;
    size_t head = 0;
    for (size_t i = 1; i < active.size(); ++i) {
      if (active[i].admit_seq < active[head].admit_seq) head = i;
    }
    for (size_t i = 0; i < active.size(); ++i) {
      if (i == head) {
        (*decisions)[i].run = true;
      } else {
        // Waiting behind the head of the run queue is pure scheduler
        // queueing, exactly like waiting in the admission queue.
        (*decisions)[i].wait = WaitKind::kSchedQueue;
      }
    }
  }
};

/// Lockstep phase alignment: only the queries at the minimum phase index
/// run. Phase-aligned co-scheduling of identical queries on a saturated
/// cluster equals serial execution (bench/ext_concurrent_queries.cc).
class PhaseAlignedPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kPhaseAligned; }
  void Decide(const std::vector<QueryView>& active,
              std::vector<StageDecision>* decisions) const override {
    decisions->assign(active.size(), StageDecision{});
    if (active.empty()) return;
    uint32_t min_phase = std::numeric_limits<uint32_t>::max();
    for (const QueryView& q : active) min_phase = std::min(min_phase, q.phase);
    for (size_t i = 0; i < active.size(); ++i) {
      if (active[i].phase == min_phase) {
        (*decisions)[i].run = true;
      } else {
        // A query ahead of the pack stalls at the inter-query phase
        // barrier; the time lands in its current phase's barrier_wait.
        (*decisions)[i].wait = WaitKind::kBarrier;
      }
    }
  }
};

/// Gap-fill overlap: every compute stage runs; the fabric is a single
/// exclusive token granted FIFO by network-stage entry order, so exactly one
/// query's network pass is in flight while the others burn their
/// compute-bound phases. Waiting for the token is scheduler queueing.
class OverlapPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kOverlap; }
  void Decide(const std::vector<QueryView>& active,
              std::vector<StageDecision>* decisions) const override {
    decisions->assign(active.size(), StageDecision{});
    size_t token = active.size();
    for (size_t i = 0; i < active.size(); ++i) {
      if (!active[i].in_net_stage) continue;
      if (token == active.size() ||
          active[i].net_enter_seq < active[token].net_enter_seq) {
        token = i;
      }
    }
    for (size_t i = 0; i < active.size(); ++i) {
      if (!active[i].in_net_stage) {
        (*decisions)[i].run = true;  // compute stages always progress
      } else if (i == token) {
        (*decisions)[i].run = true;  // holds the fabric token
      } else {
        (*decisions)[i].wait = WaitKind::kSchedQueue;
      }
    }
  }
};

/// Everything runs; the engine turns the weights into core and fabric
/// shares.
class WeightedFairPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kWeightedFair; }
  void Decide(const std::vector<QueryView>& active,
              std::vector<StageDecision>* decisions) const override {
    decisions->assign(active.size(), StageDecision{});
    for (size_t i = 0; i < active.size(); ++i) (*decisions)[i].run = true;
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> MakePolicy(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kSerial:
      return std::make_unique<SerialPolicy>();
    case SchedPolicy::kPhaseAligned:
      return std::make_unique<PhaseAlignedPolicy>();
    case SchedPolicy::kOverlap:
      return std::make_unique<OverlapPolicy>();
    case SchedPolicy::kWeightedFair:
      return std::make_unique<WeightedFairPolicy>();
  }
  return nullptr;
}

}  // namespace rdmajoin
