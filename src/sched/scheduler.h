#ifndef RDMAJOIN_SCHED_SCHEDULER_H_
#define RDMAJOIN_SCHED_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/admission.h"
#include "sched/policy.h"
#include "sched/query_profile.h"
#include "timing/attribution.h"
#include "timing/phase_times.h"
#include "util/statusor.h"

namespace rdmajoin {

/// One query submitted to the scheduler.
struct SchedQuery {
  QueryProfile profile;
  /// Virtual arrival time (open-loop: arrivals do not wait for completions).
  double arrival_seconds = 0;
  /// Scheduling weight; doubles as priority under kWeightedFair.
  uint32_t weight = 1;
};

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kOverlap;
  AdmissionConfig admission;
};

/// Final state of one submitted query. For completed queries the scheduled
/// attribution tiles the latency exactly:
///
///   latency = sched_queue_seconds + sum over phases of
///             (compute + network + buffer_stall + barrier_wait +
///              fault_recovery)
///
/// to 1e-9 (CheckScheduleInvariants pins this down). sched_queue_seconds is
/// the new bucket this subsystem adds to the PR 3 taxonomy: time lost to the
/// scheduler's own decisions -- waiting in the admission queue, behind the
/// serial run queue, or for the overlap policy's fabric token. Inter-query
/// phase-alignment waits land in the existing barrier_wait bucket of the
/// phase the query was stalled in.
struct QueryOutcome {
  uint32_t id = 0;
  std::string label;
  uint32_t weight = 1;
  double arrival_seconds = 0;
  /// When the admission controller granted the slot (== arrival when the
  /// query was admitted immediately; meaningless for rejected queries).
  double admit_seconds = 0;
  double finish_seconds = 0;
  bool completed = false;
  bool rejected = false;
  /// finish - arrival (completed queries only).
  double latency_seconds = 0;
  /// The new wait bucket; see the struct comment.
  double sched_queue_seconds = 0;
  /// Scheduled wall-clock per phase (running time plus in-phase waits).
  PhaseTimes scheduled_phases;
  /// Per-phase decomposition of the scheduled run, same buckets as the solo
  /// attribution (timing/attribution.h).
  std::array<PhaseAttribution, kNumJoinPhases> attribution;
  /// The profile's solo makespan, for slowdown factors in reports.
  double solo_seconds = 0;

  /// sched_queue_seconds + the attribution buckets; equals latency_seconds
  /// to 1e-9 for completed queries.
  double AttributedSeconds() const;
};

/// A maximal interval where a resource sat idle while admitted queries
/// existed that will eventually need it -- the filled/unfilled gap view that
/// PR 8's co-scheduling ranking pointed at.
struct SchedIdleWindow {
  /// True: the fabric was idle (no network stage running). False: the cores
  /// were idle (no compute stage running).
  bool network = false;
  double begin_seconds = 0;
  double end_seconds = 0;
  /// The admitted query that could have been rescheduled to fill the
  /// window (earliest-admitted active query), or -1 if none.
  int32_t candidate_query = -1;
};

struct ScheduleReport {
  SchedPolicy policy = SchedPolicy::kSerial;
  std::vector<QueryOutcome> queries;  // input order
  /// Completion time of the last completed query (0 when none completed).
  double makespan_seconds = 0;
  uint32_t completed = 0;
  uint32_t rejected = 0;
  std::vector<SchedIdleWindow> idle_windows;
};

/// Runs the fluid discrete-event schedule: each query is a chain of
/// compute/network stages (two per join phase, from its solo profile), a
/// stage progresses at the query's current resource share, and shares are
/// piecewise-constant between events (arrivals, admissions, stage
/// completions). One share rule covers both resources: a running stage gets
/// weight / (total weight of the stages running on the same resource), the
/// cluster's cores for compute stages and the fabric for network stages.
/// The policy decides, after every event, which admitted queries may
/// progress and which wait (and in which bucket the wait lands). Resource
/// idle windows are always recorded (the explain --utilization per-query
/// view); they never change any scheduled time.
StatusOr<ScheduleReport> RunSchedule(const std::vector<SchedQuery>& queries,
                                     const SchedulerConfig& config);

/// Verifies the per-query accounting: every completed query's buckets plus
/// sched_queue tile its latency to 1e-9, waits are non-negative, and the
/// makespan matches the outcomes. Internal error on violation.
Status CheckScheduleInvariants(const ScheduleReport& report);

/// Human-readable per-query table plus totals.
std::string FormatScheduleReport(const ScheduleReport& report);

/// Deterministic JSON (schema rdmajoin-schedule-v1; shortest round-trip
/// numbers, fixed member order, no timestamps). Consumed by
/// tools/rdmajoin_explain --utilization --sched=FILE.
std::string ScheduleReportToJson(const ScheduleReport& report);

/// Inverse of ScheduleReportToJson (tolerant reader).
StatusOr<ScheduleReport> ParseScheduleReport(const std::string& json);

}  // namespace rdmajoin

#endif  // RDMAJOIN_SCHED_SCHEDULER_H_
