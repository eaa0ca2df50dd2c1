#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace rdmajoin {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Two stages (compute, network) per join phase.
constexpr size_t kNumStages = 2 * kNumJoinPhases;

bool IsNetStage(size_t stage) { return stage % 2 == 1; }

double StageWork(const QueryProfile& profile, size_t stage) {
  const PhaseWork& w = profile.phases[stage / 2];
  return IsNetStage(stage) ? w.NetworkStageSeconds() : w.ComputeStageSeconds();
}

double& PhaseField(PhaseTimes& times, size_t phase) {
  switch (phase) {
    case 0:
      return times.histogram_seconds;
    case 1:
      return times.network_partition_seconds;
    case 2:
      return times.local_partition_seconds;
    default:
      return times.build_probe_seconds;
  }
}

double PhaseFieldValue(const PhaseTimes& times, size_t phase) {
  switch (phase) {
    case 0:
      return times.histogram_seconds;
    case 1:
      return times.network_partition_seconds;
    case 2:
      return times.local_partition_seconds;
    default:
      return times.build_probe_seconds;
  }
}

/// One admitted, unfinished query inside the engine.
struct Runner {
  uint32_t id = 0;
  const QueryProfile* profile = nullptr;
  QueryOutcome* out = nullptr;
  uint32_t weight = 1;
  uint64_t admit_seq = 0;
  uint64_t net_enter_seq = 0;
  size_t stage = 0;        // 0..kNumStages; kNumStages == finished
  double remaining = 0;    // solo-seconds left in the current stage
  double stage_elapsed = 0;
  double rate = 0;         // current resource share (0 == waiting)
  WaitKind wait = WaitKind::kNone;
};

/// Folds a closed stage's elapsed wall-clock into the query's attribution,
/// splitting it between the stage's two buckets in the solo work's
/// proportion. The split is exact by construction (x + (elapsed - x) ==
/// elapsed), so the per-query buckets tile the run time bit-for-bit.
void CloseStage(Runner* r) {
  const PhaseWork& w = r->profile->phases[r->stage / 2];
  PhaseAttribution& a = r->out->attribution[r->stage / 2];
  const double elapsed = r->stage_elapsed;
  if (IsNetStage(r->stage)) {
    const double work = w.NetworkStageSeconds();
    const double stall = work > 0 ? elapsed * (w.stall_seconds / work) : 0.0;
    a.buffer_stall_seconds += stall;
    a.network_seconds += elapsed - stall;
  } else {
    const double work = w.ComputeStageSeconds();
    const double fault = work > 0 ? elapsed * (w.fault_seconds / work) : 0.0;
    a.fault_recovery_seconds += fault;
    a.compute_seconds += elapsed - fault;
  }
  r->stage_elapsed = 0;
}

/// True when the query still has network-stage work it is not currently
/// progressing on (waiting on the fabric now, or a later network stage).
bool HasPendingNetWork(const Runner& r) {
  if (r.stage >= kNumStages) return false;
  if (IsNetStage(r.stage) && r.rate <= 0) return true;
  for (size_t s = r.stage + 1; s < kNumStages; ++s) {
    if (IsNetStage(s) && StageWork(*r.profile, s) > 0) return true;
  }
  return false;
}

bool HasPendingCpuWork(const Runner& r) {
  if (r.stage >= kNumStages) return false;
  if (!IsNetStage(r.stage) && r.rate <= 0) return true;
  for (size_t s = r.stage + 1; s < kNumStages; ++s) {
    if (!IsNetStage(s) && StageWork(*r.profile, s) > 0) return true;
  }
  return false;
}

/// Tracks one resource's idle windows across charge intervals, merging
/// contiguous idle time into maximal windows.
class IdleTracker {
 public:
  IdleTracker(bool network, std::vector<SchedIdleWindow>* out)
      : network_(network), out_(out) {}

  void Observe(double t0, double t1, bool busy, int32_t candidate) {
    if (busy || candidate < 0) {
      Close();
      return;
    }
    if (!open_) {
      open_ = true;
      begin_ = t0;
      candidate_ = candidate;
    }
    end_ = t1;
  }

  void Close() {
    if (open_ && end_ > begin_) {
      out_->push_back(SchedIdleWindow{network_, begin_, end_, candidate_});
    }
    open_ = false;
  }

 private:
  bool network_;
  std::vector<SchedIdleWindow>* out_;
  bool open_ = false;
  double begin_ = 0;
  double end_ = 0;
  int32_t candidate_ = -1;
};

/// Shape check at the ParseScheduleReport boundary: a document whose JSON
/// types are right but which no RunSchedule could have written is rejected
/// naming the field, before any report reads it.
Status ValidateScheduleShape(const ScheduleReport& report) {
  const size_t n = report.queries.size();
  auto check_time = [](const std::string& where, const char* field, double v) {
    return std::isfinite(v) && v >= 0
               ? Status::OK()
               : Status::InvalidArgument(where + field +
                                         " must be finite and >= 0");
  };
  RDMAJOIN_RETURN_IF_ERROR(
      check_time("schedule: ", "makespan_seconds", report.makespan_seconds));
  std::vector<bool> seen(n, false);
  uint32_t completed = 0;
  uint32_t rejected = 0;
  for (size_t i = 0; i < n; ++i) {
    const QueryOutcome& q = report.queries[i];
    const std::string where = "schedule query " + std::to_string(i) + ": ";
    if (q.id >= n) {
      return Status::InvalidArgument(where + "id " + std::to_string(q.id) +
                                     " outside [0, " + std::to_string(n) + ")");
    }
    if (seen[q.id]) {
      return Status::InvalidArgument(where + "duplicate id " +
                                     std::to_string(q.id));
    }
    seen[q.id] = true;
    if (q.weight == 0) {
      return Status::InvalidArgument(where + "weight must be >= 1");
    }
    completed += q.completed ? 1 : 0;
    rejected += q.rejected ? 1 : 0;
    for (const auto& [field, v] :
         {std::pair<const char*, double>{"arrival_seconds", q.arrival_seconds},
          {"admit_seconds", q.admit_seconds},
          {"finish_seconds", q.finish_seconds},
          {"latency_seconds", q.latency_seconds},
          {"sched_queue_seconds", q.sched_queue_seconds},
          {"solo_seconds", q.solo_seconds}}) {
      RDMAJOIN_RETURN_IF_ERROR(check_time(where, field, v));
    }
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      const std::string phase =
          where + std::string(JoinPhaseName(static_cast<JoinPhase>(p))) + " ";
      const PhaseAttribution& a = q.attribution[p];
      for (const auto& [field, v] :
           {std::pair<const char*, double>{
                "scheduled_phases", PhaseFieldValue(q.scheduled_phases, p)},
            {"compute_seconds", a.compute_seconds},
            {"network_seconds", a.network_seconds},
            {"buffer_stall_seconds", a.buffer_stall_seconds},
            {"barrier_wait_seconds", a.barrier_wait_seconds},
            {"fault_recovery_seconds", a.fault_recovery_seconds}}) {
        RDMAJOIN_RETURN_IF_ERROR(check_time(phase, field, v));
      }
    }
  }
  if (report.completed != completed) {
    return Status::InvalidArgument(
        "schedule: completed " + std::to_string(report.completed) +
        " does not match the " + std::to_string(completed) +
        " queries flagged completed");
  }
  if (report.rejected != rejected) {
    return Status::InvalidArgument(
        "schedule: rejected " + std::to_string(report.rejected) +
        " does not match the " + std::to_string(rejected) +
        " queries flagged rejected");
  }
  for (size_t i = 0; i < report.idle_windows.size(); ++i) {
    const SchedIdleWindow& w = report.idle_windows[i];
    const std::string where = "schedule idle window " + std::to_string(i) + ": ";
    if (w.candidate_query < -1 ||
        w.candidate_query >= static_cast<int64_t>(n)) {
      return Status::InvalidArgument(
          where + "candidate_query " + std::to_string(w.candidate_query) +
          " outside [-1, " + std::to_string(n) + ")");
    }
    RDMAJOIN_RETURN_IF_ERROR(check_time(where, "begin_seconds", w.begin_seconds));
    RDMAJOIN_RETURN_IF_ERROR(check_time(where, "end_seconds", w.end_seconds));
  }
  return Status::OK();
}

}  // namespace

double QueryOutcome::AttributedSeconds() const {
  double total = sched_queue_seconds;
  for (const PhaseAttribution& a : attribution) total += a.TotalSeconds();
  return total;
}

StatusOr<ScheduleReport> RunSchedule(const std::vector<SchedQuery>& queries,
                                     const SchedulerConfig& config) {
  if (queries.empty()) return Status::InvalidArgument("no queries to schedule");
  Status st = config.admission.Validate();
  if (!st.ok()) return st;
  std::unique_ptr<SchedulerPolicy> policy = MakePolicy(config.policy);
  if (policy == nullptr) {
    return Status::InvalidArgument("unknown scheduling policy");
  }
  for (const SchedQuery& q : queries) {
    if (q.weight == 0) return Status::InvalidArgument("query weight must be >= 1");
    if (!(q.arrival_seconds >= 0)) {
      return Status::InvalidArgument("arrival times must be non-negative");
    }
  }

  ScheduleReport report;
  report.policy = config.policy;
  report.queries.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryOutcome& out = report.queries[i];
    out.id = static_cast<uint32_t>(i);
    out.label = queries[i].profile.label;
    out.weight = queries[i].weight;
    out.arrival_seconds = queries[i].arrival_seconds;
    out.solo_seconds = queries[i].profile.solo_seconds;
  }

  AdmissionController ctrl(config.admission);
  IdleTracker net_idle(/*network=*/true, &report.idle_windows);
  IdleTracker cpu_idle(/*network=*/false, &report.idle_windows);

  // Arrival order; ties resolve in submission order.
  std::vector<uint32_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return queries[a].arrival_seconds < queries[b].arrival_seconds;
  });

  std::vector<Runner> active;
  uint64_t admit_seq = 0;
  uint64_t net_seq = 0;
  size_t ai = 0;
  double t = 0;

  auto finalize = [&](QueryOutcome* out, double now) {
    out->completed = true;
    out->finish_seconds = now;
    out->latency_seconds = now - out->arrival_seconds;
  };

  // Enters the runner's next non-empty stage (assigning the network FIFO
  // sequence on network-stage entry); true when all stages are done.
  auto enter_next_stage = [&](Runner* r) -> bool {
    while (r->stage < kNumStages && StageWork(*r->profile, r->stage) <= 0) {
      ++r->stage;
    }
    if (r->stage >= kNumStages) return true;
    r->remaining = StageWork(*r->profile, r->stage);
    r->stage_elapsed = 0;
    if (IsNetStage(r->stage)) r->net_enter_seq = net_seq++;
    return false;
  };

  // Returns true when the query finished instantly (a zero-work profile).
  auto start_runner = [&](uint32_t idx, double now) -> bool {
    QueryOutcome& out = report.queries[idx];
    out.admit_seconds = now;
    // Admission-queue wait is scheduler queueing by definition.
    out.sched_queue_seconds += now - out.arrival_seconds;
    Runner r;
    r.id = idx;
    r.profile = &queries[idx].profile;
    r.out = &out;
    r.weight = queries[idx].weight;
    r.admit_seq = admit_seq++;
    if (enter_next_stage(&r)) {
      finalize(&out, now);
      return true;
    }
    active.push_back(r);
    return false;
  };

  auto admit_from_queue = [&](double now) {
    uint32_t idx = 0;
    double mem = 0;
    while (ctrl.NextAdmittable(&idx, &mem)) {
      if (start_runner(idx, now)) ctrl.OnComplete(idx, mem);
    }
  };

  std::vector<QueryView> views;
  std::vector<StageDecision> decisions;

  // Recomputes every active query's decision and resource share. Shares are
  // piecewise-constant until the next event.
  auto recompute_rates = [&]() {
    views.clear();
    for (const Runner& r : active) {
      QueryView v;
      v.id = r.id;
      v.phase = static_cast<uint32_t>(r.stage / 2);
      v.in_net_stage = IsNetStage(r.stage);
      v.weight = r.weight;
      v.admit_seq = r.admit_seq;
      v.net_enter_seq = r.net_enter_seq;
      views.push_back(v);
    }
    policy->Decide(views, &decisions);
    uint64_t cpu_weight = 0;
    uint64_t net_weight = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      if (!decisions[i].run) continue;
      (IsNetStage(active[i].stage) ? net_weight : cpu_weight) +=
          active[i].weight;
    }
    for (size_t i = 0; i < active.size(); ++i) {
      Runner& r = active[i];
      if (!decisions[i].run) {
        r.rate = 0;
        r.wait = decisions[i].wait == WaitKind::kNone ? WaitKind::kSchedQueue
                                                      : decisions[i].wait;
        continue;
      }
      // One share rule for both resources: a running stage gets its weight
      // over the total weight running on the same resource, the cluster's
      // cores for a compute stage and the fabric for a network stage.
      const uint64_t total = IsNetStage(r.stage) ? net_weight : cpu_weight;
      r.rate = static_cast<double>(r.weight) / static_cast<double>(total);
      r.wait = WaitKind::kNone;
    }
  };

  while (true) {
    recompute_rates();
    double t_next = kInf;
    if (ai < order.size()) t_next = queries[order[ai]].arrival_seconds;
    for (const Runner& r : active) {
      if (r.rate > 0) t_next = std::min(t_next, t + r.remaining / r.rate);
    }
    if (t_next == kInf) {
      if (!active.empty()) {
        return Status::Internal(
            "schedule deadlock: admitted queries but nothing runnable");
      }
      break;
    }
    if (t_next < t) t_next = t;
    const double dt = t_next - t;
    if (dt > 0) {
      bool net_busy = false;
      bool cpu_busy = false;
      for (Runner& r : active) {
        PhaseField(r.out->scheduled_phases, r.stage / 2) += dt;
        if (r.rate > 0) {
          r.remaining -= r.rate * dt;
          r.stage_elapsed += dt;
          (IsNetStage(r.stage) ? net_busy : cpu_busy) = true;
        } else if (r.wait == WaitKind::kBarrier) {
          r.out->attribution[r.stage / 2].barrier_wait_seconds += dt;
        } else {
          r.out->sched_queue_seconds += dt;
        }
      }
      // A window is only a missed opportunity if some admitted query has
      // pending work for the idle resource.
      int32_t net_cand = -1;
      int32_t cpu_cand = -1;
      uint64_t net_best = 0;
      uint64_t cpu_best = 0;
      for (const Runner& r : active) {
        if (HasPendingNetWork(r) &&
            (net_cand < 0 || r.admit_seq < net_best)) {
          net_cand = static_cast<int32_t>(r.id);
          net_best = r.admit_seq;
        }
        if (HasPendingCpuWork(r) &&
            (cpu_cand < 0 || r.admit_seq < cpu_best)) {
          cpu_cand = static_cast<int32_t>(r.id);
          cpu_best = r.admit_seq;
        }
      }
      net_idle.Observe(t, t_next, net_busy, net_cand);
      cpu_idle.Observe(t, t_next, cpu_busy, cpu_cand);
      t = t_next;
    }

    // Arrivals due now.
    while (ai < order.size() && queries[order[ai]].arrival_seconds <= t) {
      const uint32_t idx = order[ai++];
      const AdmissionOutcome ao =
          ctrl.OnArrival(idx, queries[idx].profile.memory_bytes);
      if (ao == AdmissionOutcome::kAdmitted) {
        if (start_runner(idx, t)) {
          ctrl.OnComplete(idx, queries[idx].profile.memory_bytes);
          admit_from_queue(t);
        }
      } else if (ao == AdmissionOutcome::kRejected) {
        report.queries[idx].rejected = true;
        report.queries[idx].finish_seconds = t;
      }
      // kQueued: the controller holds it until a slot frees.
    }

    // Stage completions due now. A completed stage's successor starts at the
    // rates the next recompute assigns.
    bool any_finished = false;
    for (Runner& r : active) {
      if (r.stage >= kNumStages || r.rate <= 0) continue;
      const double eps = StageWork(*r.profile, r.stage) * 1e-12 + 1e-9 * r.rate;
      if (r.remaining > eps) continue;
      CloseStage(&r);
      ++r.stage;
      if (enter_next_stage(&r)) {
        finalize(r.out, t);
        ctrl.OnComplete(r.id, r.profile->memory_bytes);
        r.stage = kNumStages;
        any_finished = true;
      }
    }
    if (any_finished) {
      active.erase(std::remove_if(active.begin(), active.end(),
                                  [](const Runner& r) {
                                    return r.stage >= kNumStages;
                                  }),
                   active.end());
      admit_from_queue(t);
    }
  }

  net_idle.Close();
  cpu_idle.Close();
  for (const QueryOutcome& out : report.queries) {
    if (out.completed) {
      ++report.completed;
      report.makespan_seconds = std::max(report.makespan_seconds,
                                         out.finish_seconds);
    } else if (out.rejected) {
      ++report.rejected;
    }
  }
  std::stable_sort(report.idle_windows.begin(), report.idle_windows.end(),
                   [](const SchedIdleWindow& a, const SchedIdleWindow& b) {
                     return a.begin_seconds < b.begin_seconds;
                   });
  return report;
}

Status CheckScheduleInvariants(const ScheduleReport& report) {
  double last_finish = 0;
  for (const QueryOutcome& q : report.queries) {
    if (q.completed && q.rejected) {
      return Status::Internal("query both completed and rejected");
    }
    if (!q.completed && !q.rejected) {
      return Status::Internal("query neither completed nor rejected");
    }
    if (q.rejected) continue;
    if (q.admit_seconds + 1e-12 < q.arrival_seconds ||
        q.finish_seconds + 1e-12 < q.admit_seconds) {
      return Status::Internal("query timeline out of order");
    }
    if (q.sched_queue_seconds < 0) {
      return Status::Internal("negative sched_queue_seconds");
    }
    for (const PhaseAttribution& a : q.attribution) {
      if (a.compute_seconds < 0 || a.network_seconds < 0 ||
          a.buffer_stall_seconds < 0 || a.barrier_wait_seconds < 0 ||
          a.fault_recovery_seconds < 0) {
        return Status::Internal("negative attribution bucket");
      }
    }
    const double err = std::fabs(q.AttributedSeconds() - q.latency_seconds);
    if (err > 1e-9) {
      return Status::Internal(
          "per-query attribution does not tile the latency: query " +
          std::to_string(q.id) + " off by " + std::to_string(err) + "s");
    }
    last_finish = std::max(last_finish, q.finish_seconds);
  }
  if (std::fabs(last_finish - report.makespan_seconds) > 1e-9) {
    return Status::Internal("makespan does not match the last completion");
  }
  for (const SchedIdleWindow& w : report.idle_windows) {
    if (!(w.end_seconds > w.begin_seconds) ||
        w.end_seconds > report.makespan_seconds + 1e-9) {
      return Status::Internal("malformed idle window");
    }
  }
  return Status::OK();
}

std::string FormatScheduleReport(const ScheduleReport& report) {
  char buf[256];
  std::string s;
  std::snprintf(buf, sizeof(buf),
                "schedule: policy=%.*s queries=%zu completed=%u rejected=%u "
                "makespan=%.4fs\n",
                static_cast<int>(SchedPolicyName(report.policy).size()),
                SchedPolicyName(report.policy).data(), report.queries.size(),
                report.completed, report.rejected, report.makespan_seconds);
  s += buf;
  for (const QueryOutcome& q : report.queries) {
    if (q.rejected) {
      std::snprintf(buf, sizeof(buf), "  q%-3u %-20s arrival=%8.4f REJECTED\n",
                    q.id, q.label.c_str(), q.arrival_seconds);
      s += buf;
      continue;
    }
    const double slowdown =
        q.solo_seconds > 0 ? q.latency_seconds / q.solo_seconds : 0;
    std::snprintf(buf, sizeof(buf),
                  "  q%-3u %-20s arrival=%8.4f finish=%8.4f latency=%8.4f "
                  "queue=%7.4f slowdown=%5.2fx\n",
                  q.id, q.label.c_str(), q.arrival_seconds, q.finish_seconds,
                  q.latency_seconds, q.sched_queue_seconds, slowdown);
    s += buf;
  }
  double net_idle = 0;
  double cpu_idle = 0;
  size_t net_cnt = 0;
  size_t cpu_cnt = 0;
  for (const SchedIdleWindow& w : report.idle_windows) {
    const double len = w.end_seconds - w.begin_seconds;
    if (w.network) {
      net_idle += len;
      ++net_cnt;
    } else {
      cpu_idle += len;
      ++cpu_cnt;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "  idle: network %zu windows (%.4fs), cores %zu windows "
                "(%.4fs)\n",
                net_cnt, net_idle, cpu_cnt, cpu_idle);
  s += buf;
  return s;
}

std::string ScheduleReportToJson(const ScheduleReport& report) {
  std::string s;
  JsonWriter w(&s);
  w.BeginObject();
  w.Break(2).Key("schema").String("rdmajoin-schedule-v1");
  w.Break(2).Key("policy").String(SchedPolicyName(report.policy));
  w.Break(2).Key("makespan_seconds").Number(report.makespan_seconds);
  w.Break(2).Key("completed").Uint(report.completed);
  w.Break(2).Key("rejected").Uint(report.rejected);
  w.Break(2).Key("queries").BeginArray();
  for (const QueryOutcome& q : report.queries) {
    w.Break(4).BeginObject().Key("id").Uint(q.id);
    w.Key("label").String(q.label).Key("weight").Uint(q.weight);
    w.Break(5).Key("arrival_seconds").Number(q.arrival_seconds);
    w.Key("admit_seconds").Number(q.admit_seconds);
    w.Key("finish_seconds").Number(q.finish_seconds);
    w.Break(5).Key("completed").Bool(q.completed);
    w.Key("rejected").Bool(q.rejected);
    w.Key("latency_seconds").Number(q.latency_seconds);
    w.Key("sched_queue_seconds").Number(q.sched_queue_seconds);
    w.Key("solo_seconds").Number(q.solo_seconds);
    w.Break(5).Key("scheduled_phases").BeginObject();
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      w.Key(JoinPhaseName(static_cast<JoinPhase>(p)))
          .Number(PhaseFieldValue(q.scheduled_phases, p));
    }
    w.EndObject().Break(5).Key("attribution").BeginArray();
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      const PhaseAttribution& a = q.attribution[p];
      w.BeginObject().Key("phase").String(
          JoinPhaseName(static_cast<JoinPhase>(p)));
      w.Key("compute_seconds").Number(a.compute_seconds);
      w.Key("network_seconds").Number(a.network_seconds);
      w.Key("buffer_stall_seconds").Number(a.buffer_stall_seconds);
      w.Key("barrier_wait_seconds").Number(a.barrier_wait_seconds);
      w.Key("fault_recovery_seconds").Number(a.fault_recovery_seconds);
      w.EndObject();
    }
    w.EndArray().EndObject();
  }
  w.Break(2).EndArray();
  w.Break(2).Key("idle_windows").BeginArray();
  for (const SchedIdleWindow& iw : report.idle_windows) {
    w.Break(4).BeginObject();
    w.Key("resource").String(iw.network ? "network" : "cores");
    w.Key("begin_seconds").Number(iw.begin_seconds);
    w.Key("end_seconds").Number(iw.end_seconds);
    w.Key("candidate_query").Int(iw.candidate_query).EndObject();
  }
  w.Break(2).EndArray();
  w.Break(0).EndObject();
  s += "\n";
  return s;
}

StatusOr<ScheduleReport> ParseScheduleReport(const std::string& json) {
  RDMAJOIN_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(json));
  if (doc.StringOr("schema", "") != "rdmajoin-schedule-v1") {
    return Status::InvalidArgument("not a rdmajoin-schedule-v1 document");
  }
  ScheduleReport report;
  RDMAJOIN_ASSIGN_OR_RETURN(report.policy,
                            ParseSchedPolicy(doc.StringOr("policy", "")));
  RDMAJOIN_RETURN_IF_ERROR(doc.Get("makespan_seconds", &report.makespan_seconds,
                                   "completed", &report.completed, "rejected",
                                   &report.rejected));
  const JsonValue* queries = doc.Find("queries");
  if (queries == nullptr || !queries->is_array()) {
    return Status::InvalidArgument("schedule document lacks queries[]");
  }
  for (const JsonValue& jq : queries->array_items) {
    QueryOutcome q;
    RDMAJOIN_RETURN_IF_ERROR(jq.Get(
        "id", &q.id, "label", &q.label, "weight", &q.weight, "arrival_seconds",
        &q.arrival_seconds, "admit_seconds", &q.admit_seconds,
        "finish_seconds", &q.finish_seconds, "completed", &q.completed,
        "rejected", &q.rejected, "latency_seconds", &q.latency_seconds,
        "sched_queue_seconds", &q.sched_queue_seconds, "solo_seconds",
        &q.solo_seconds));
    if (const JsonValue* phases = jq.Find("scheduled_phases")) {
      for (size_t p = 0; p < kNumJoinPhases; ++p) {
        RDMAJOIN_RETURN_IF_ERROR(
            phases->Get(JoinPhaseName(static_cast<JoinPhase>(p)),
                        &PhaseField(q.scheduled_phases, p)));
      }
    }
    if (const JsonValue* attr = jq.Find("attribution")) {
      if (attr->is_array()) {
        for (size_t p = 0;
             p < std::min(attr->array_items.size(), kNumJoinPhases); ++p) {
          const JsonValue& ja = attr->array_items[p];
          PhaseAttribution& a = q.attribution[p];
          RDMAJOIN_RETURN_IF_ERROR(ja.Get(
              "compute_seconds", &a.compute_seconds, "network_seconds",
              &a.network_seconds, "buffer_stall_seconds",
              &a.buffer_stall_seconds, "barrier_wait_seconds",
              &a.barrier_wait_seconds, "fault_recovery_seconds",
              &a.fault_recovery_seconds));
        }
      }
    }
    report.queries.push_back(std::move(q));
  }
  if (const JsonValue* windows = doc.Find("idle_windows")) {
    if (windows->is_array()) {
      for (const JsonValue& jw : windows->array_items) {
        SchedIdleWindow w;
        w.network = jw.StringOr("resource", "network") == "network";
        RDMAJOIN_RETURN_IF_ERROR(jw.Get("begin_seconds", &w.begin_seconds,
                                        "end_seconds", &w.end_seconds,
                                        "candidate_query", &w.candidate_query));
        report.idle_windows.push_back(w);
      }
    }
  }
  RDMAJOIN_RETURN_IF_ERROR(ValidateScheduleShape(report));
  return report;
}

}  // namespace rdmajoin
