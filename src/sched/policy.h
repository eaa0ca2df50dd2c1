#ifndef RDMAJOIN_SCHED_POLICY_H_
#define RDMAJOIN_SCHED_POLICY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace rdmajoin {

/// The pluggable co-scheduling policies (docs/scheduling.md has the
/// taxonomy). All four run on the same fluid discrete-event engine
/// (sched/scheduler.h); they differ only in which admitted queries may make
/// progress at each instant.
enum class SchedPolicy : uint8_t {
  /// One query at a time, in admission order. The serial baseline every
  /// other policy is measured against.
  kSerial = 0,
  /// All queries advance through the join's phases in lockstep: only the
  /// queries at the minimum phase index run, everyone else waits at the
  /// inter-query barrier. This is the bench-proven "gains exactly nothing on
  /// a saturated cluster" baseline.
  kPhaseAligned,
  /// Gap-fill overlap: compute stages always run (time-sharing cores), but
  /// the fabric is granted to one query at a time in FIFO order, so one
  /// query's network pass overlaps the others' compute-bound phases. The
  /// policy the paper's Section 7 asks for.
  kOverlap,
  /// Everything runs; per-query weights set both the core time-share and the
  /// fabric share, each weight / total running weight (weight doubles as
  /// priority).
  kWeightedFair,
};

inline constexpr size_t kNumSchedPolicies = 4;

/// Stable kebab-case name, e.g. "phase-aligned".
std::string_view SchedPolicyName(SchedPolicy policy);

/// Inverse of SchedPolicyName; InvalidArgument on unknown names.
StatusOr<SchedPolicy> ParseSchedPolicy(std::string_view name);

/// Why a query is not making progress right now. Decides which attribution
/// bucket the wait lands in: kSchedQueue charges the new
/// sched_queue_seconds bucket (time lost to the scheduler's queueing
/// decisions), kBarrier charges barrier_wait_seconds of the query's current
/// phase (time lost to inter-query phase alignment).
enum class WaitKind : uint8_t { kNone = 0, kSchedQueue, kBarrier };

/// What the engine shows a policy about one admitted, unfinished query.
struct QueryView {
  /// Stable query id (index into the schedule's input order).
  uint32_t id = 0;
  /// Current join phase, 0..kNumJoinPhases-1.
  uint32_t phase = 0;
  /// True when the query's current stage is the network (fabric) stage of
  /// `phase`; false during the compute stage.
  bool in_net_stage = false;
  /// Scheduling weight (= priority under kWeightedFair).
  uint32_t weight = 1;
  /// Admission order: lower admitted earlier. Unique.
  uint64_t admit_seq = 0;
  /// FIFO order of entry into the current network stage (valid only when
  /// in_net_stage). Unique among net-stage queries.
  uint64_t net_enter_seq = 0;
};

/// Per-query verdict for the current instant.
struct StageDecision {
  bool run = false;
  WaitKind wait = WaitKind::kNone;  // meaningful only when !run
};

/// Strategy interface: given the admitted, unfinished queries (sorted by
/// admit_seq), decide which may progress. Called by the engine after every
/// event; must be deterministic and depend only on the views passed in.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  virtual SchedPolicy kind() const = 0;
  /// Fills `decisions` (same size/order as `active`).
  virtual void Decide(const std::vector<QueryView>& active,
                      std::vector<StageDecision>* decisions) const = 0;
};

/// Factory for the built-in policies.
std::unique_ptr<SchedulerPolicy> MakePolicy(SchedPolicy policy);

}  // namespace rdmajoin

#endif  // RDMAJOIN_SCHED_POLICY_H_
