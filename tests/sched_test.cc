#include <gtest/gtest.h>

#include <cmath>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "sched/admission.h"
#include "sched/policy.h"
#include "sched/query_profile.h"
#include "sched/scheduler.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

JoinRunResult RunOnce(const ClusterConfig& cluster, const JoinConfig& jc,
                      uint64_t seed, uint64_t tuples = 20000) {
  WorkloadSpec spec;
  spec.inner_tuples = tuples;
  spec.outer_tuples = tuples;
  spec.seed = seed;
  auto w = GenerateWorkload(spec, cluster.num_machines);
  EXPECT_TRUE(w.ok());
  auto result = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

// Shared fixture state: capturing traces is the expensive part, do it once.
class SchedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterConfig(QdrCluster(4));
    jc_ = new JoinConfig();
    jc_->network_radix_bits = 5;
    jc_->scale_up = 512.0;
    traces_ = new std::vector<RunTrace>();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      traces_->push_back(RunOnce(*cluster_, *jc_, seed).trace);
    }
    profiles_ = new std::vector<QueryProfile>();
    for (size_t q = 0; q < traces_->size(); ++q) {
      profiles_->push_back(BuildQueryProfile(
          *cluster_, *jc_, (*traces_)[q], "q" + std::to_string(q)));
    }
  }
  static void TearDownTestSuite() {
    delete profiles_;
    delete traces_;
    delete jc_;
    delete cluster_;
  }

  static std::vector<SchedQuery> SameArrival(size_t n) {
    std::vector<SchedQuery> queries;
    for (size_t q = 0; q < n; ++q) {
      SchedQuery sq;
      sq.profile = (*profiles_)[q % profiles_->size()];
      sq.arrival_seconds = 0;
      queries.push_back(std::move(sq));
    }
    return queries;
  }

  /// n copies of the same profile, all arriving at t=0. Identical queries
  /// move in lockstep under phase alignment, which is what makes the
  /// aligned-equals-serial equivalence exact (heterogeneous queries can
  /// overlap stages within a phase and beat serial even when aligned).
  static std::vector<SchedQuery> IdenticalCopies(size_t n) {
    std::vector<SchedQuery> queries;
    for (size_t q = 0; q < n; ++q) {
      SchedQuery sq;
      sq.profile = (*profiles_)[0];
      sq.arrival_seconds = 0;
      queries.push_back(std::move(sq));
    }
    return queries;
  }

  static ClusterConfig* cluster_;
  static JoinConfig* jc_;
  static std::vector<RunTrace>* traces_;
  static std::vector<QueryProfile>* profiles_;
};

ClusterConfig* SchedTest::cluster_ = nullptr;
JoinConfig* SchedTest::jc_ = nullptr;
std::vector<RunTrace>* SchedTest::traces_ = nullptr;
std::vector<QueryProfile>* SchedTest::profiles_ = nullptr;

// ---------------------------------------------------------------- policies

TEST(SchedPolicyNames, RoundTrip) {
  for (size_t p = 0; p < kNumSchedPolicies; ++p) {
    const SchedPolicy policy = static_cast<SchedPolicy>(p);
    auto parsed = ParseSchedPolicy(std::string(SchedPolicyName(policy)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseSchedPolicy("round-robin").ok());
}

// ----------------------------------------------------------- fabric shares

/// Runs one query per weight under kWeightedFair, all arriving at t=0, each
/// with 1 s of solo network work and nothing else, so every finish time is
/// set by the queries' fabric shares alone.
StatusOr<ScheduleReport> RunNetOnly(const std::vector<uint32_t>& weights) {
  QueryProfile net_only;
  net_only.phases[static_cast<size_t>(JoinPhase::kNetworkPartition)]
      .net_seconds = 1.0;
  net_only.solo_seconds = 1.0;
  std::vector<SchedQuery> queries(weights.size());
  for (size_t q = 0; q < weights.size(); ++q) {
    queries[q].profile = net_only;
    queries[q].weight = weights[q];
  }
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kWeightedFair;
  return RunSchedule(queries, sc);
}

TEST(FabricShares, EqualWeightsSplitEvenly) {
  // n equal queries each get 1/n of the fabric and finish together at n s.
  for (uint32_t n = 1; n <= 4; ++n) {
    auto report = RunNetOnly(std::vector<uint32_t>(n, 1));
    ASSERT_TRUE(report.ok());
    for (const QueryOutcome& q : report->queries) {
      EXPECT_NEAR(q.finish_seconds, static_cast<double>(n), 1e-12);
    }
  }
}

TEST(FabricShares, IntegerWeightsAreProportional) {
  // Shares 1/2, 1/4, 1/4: the weight-2 query finishes at 2 s; the others
  // then have 0.5 s left at share 1/2 each and finish at 3 s.
  auto report = RunNetOnly({2, 1, 1});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->queries[0].finish_seconds, 2.0, 1e-12);
  EXPECT_NEAR(report->queries[1].finish_seconds, 3.0, 1e-12);
  EXPECT_NEAR(report->queries[2].finish_seconds, 3.0, 1e-12);
}

// -------------------------------------------------------------- admission

TEST(Admission, ValidatesConfig) {
  AdmissionConfig config;
  config.memory_budget_bytes = -1;
  EXPECT_FALSE(config.Validate().ok());
  config.memory_budget_bytes = 0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(Admission, UnlimitedAdmitsEverything) {
  AdmissionController ctl(AdmissionConfig{});
  for (uint32_t q = 0; q < 16; ++q) {
    EXPECT_EQ(ctl.OnArrival(q, 1e9), AdmissionOutcome::kAdmitted);
  }
  EXPECT_EQ(ctl.running(), 16u);
  EXPECT_EQ(ctl.queue_length(), 0u);
}

TEST(Admission, ConcurrencyLimitQueuesThenRejects) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  config.max_queue_length = 1;
  AdmissionController ctl(config);
  EXPECT_EQ(ctl.OnArrival(0, 0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(ctl.OnArrival(1, 0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(ctl.OnArrival(2, 0), AdmissionOutcome::kQueued);
  // Queue is full: the bound is a hard edge, not a suggestion.
  EXPECT_EQ(ctl.OnArrival(3, 0), AdmissionOutcome::kRejected);
  EXPECT_EQ(ctl.queue_length(), 1u);

  uint32_t query = 0;
  double memory = 0;
  EXPECT_FALSE(ctl.NextAdmittable(&query, &memory));  // no free slot yet
  ctl.OnComplete(0, 0);
  ASSERT_TRUE(ctl.NextAdmittable(&query, &memory));
  EXPECT_EQ(query, 2u);
  EXPECT_FALSE(ctl.NextAdmittable(&query, &memory));  // queue drained
}

TEST(Admission, MemoryBudgetHoldsHeadOfLine) {
  AdmissionConfig config;
  config.memory_budget_bytes = 100;
  AdmissionController ctl(config);
  EXPECT_EQ(ctl.OnArrival(0, 60), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(ctl.OnArrival(1, 60), AdmissionOutcome::kQueued);
  // FIFO: a small query behind the blocked head must not overtake it.
  EXPECT_EQ(ctl.OnArrival(2, 10), AdmissionOutcome::kQueued);
  uint32_t query = 0;
  double memory = 0;
  EXPECT_FALSE(ctl.NextAdmittable(&query, &memory));
  ctl.OnComplete(0, 60);
  ASSERT_TRUE(ctl.NextAdmittable(&query, &memory));
  EXPECT_EQ(query, 1u);
  EXPECT_EQ(memory, 60.0);
  ASSERT_TRUE(ctl.NextAdmittable(&query, &memory));
  EXPECT_EQ(query, 2u);
}

TEST(Admission, OverBudgetQueryRejectedOutright) {
  AdmissionConfig config;
  config.memory_budget_bytes = 100;
  AdmissionController ctl(config);
  // Can never fit, even in an empty system: rejecting it immediately keeps
  // it from wedging the FIFO queue forever.
  EXPECT_EQ(ctl.OnArrival(0, 200), AdmissionOutcome::kRejected);
  EXPECT_EQ(ctl.OnArrival(1, 80), AdmissionOutcome::kAdmitted);
}

// --------------------------------------------------------------- profiles

TEST_F(SchedTest, ProfileTilesTheSoloPhases) {
  for (const QueryProfile& p : *profiles_) {
    EXPECT_GT(p.solo_seconds, 0);
    EXPECT_GT(p.memory_bytes, 0);
    double total = 0;
    for (size_t ph = 0; ph < kNumJoinPhases; ++ph) {
      total += p.phases[ph].TotalSeconds();
    }
    // The per-phase stage works tile the solo makespan exactly (critical
    // machine's buckets tile the global phase time by construction).
    EXPECT_NEAR(total, p.solo_seconds, 1e-9);
    EXPECT_NEAR(p.solo_phases.TotalSeconds(), p.solo_seconds, 1e-9);
  }
}

TEST_F(SchedTest, SingleQueryReproducesTheSoloMakespan) {
  for (const SchedPolicy policy :
       {SchedPolicy::kSerial, SchedPolicy::kPhaseAligned, SchedPolicy::kOverlap,
        SchedPolicy::kWeightedFair}) {
    SchedulerConfig sc;
    sc.policy = policy;
    auto report = RunSchedule(SameArrival(1), sc);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(CheckScheduleInvariants(*report).ok());
    EXPECT_NEAR(report->makespan_seconds, (*profiles_)[0].solo_seconds, 1e-9);
    EXPECT_EQ(report->queries[0].sched_queue_seconds, 0.0);
  }
}

TEST_F(SchedTest, SerialRunsBackToBack) {
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kSerial;
  auto report = RunSchedule(SameArrival(3), sc);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(CheckScheduleInvariants(*report).ok());
  double serial_sum = 0;
  for (size_t q = 0; q < 3; ++q) serial_sum += (*profiles_)[q].solo_seconds;
  EXPECT_NEAR(report->makespan_seconds, serial_sum, 1e-6);
  // Later queries' whole wait lands in the new sched_queue bucket.
  EXPECT_GT(report->queries[1].sched_queue_seconds, 0);
  EXPECT_GT(report->queries[2].sched_queue_seconds,
            report->queries[1].sched_queue_seconds);
}

TEST_F(SchedTest, PhaseAlignedGainsNothingOverSerial) {
  // The ext_concurrent_queries finding, now a pinned unit test: aligning
  // the phases of concurrent queries on a saturated cluster just divides
  // each resource, so the makespan matches serial execution.
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kSerial;
  auto serial = RunSchedule(IdenticalCopies(3), sc);
  ASSERT_TRUE(serial.ok());
  sc.policy = SchedPolicy::kPhaseAligned;
  auto aligned = RunSchedule(IdenticalCopies(3), sc);
  ASSERT_TRUE(aligned.ok());
  ASSERT_TRUE(CheckScheduleInvariants(*aligned).ok());
  EXPECT_NEAR(aligned->makespan_seconds, serial->makespan_seconds,
              1e-6 * serial->makespan_seconds);
  EXPECT_NEAR(serial->makespan_seconds, 3 * (*profiles_)[0].solo_seconds,
              1e-6 * serial->makespan_seconds);
}

TEST_F(SchedTest, OverlapBeatsSerialAndPhaseAligned) {
  // The tentpole claim: overlapping one query's network pass with the
  // others' compute-bound phases shortens the makespan measurably.
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kSerial;
  auto serial = RunSchedule(IdenticalCopies(3), sc);
  ASSERT_TRUE(serial.ok());
  sc.policy = SchedPolicy::kPhaseAligned;
  auto aligned = RunSchedule(IdenticalCopies(3), sc);
  ASSERT_TRUE(aligned.ok());
  sc.policy = SchedPolicy::kOverlap;
  auto overlap = RunSchedule(IdenticalCopies(3), sc);
  ASSERT_TRUE(overlap.ok());
  ASSERT_TRUE(CheckScheduleInvariants(*overlap).ok());
  EXPECT_LT(overlap->makespan_seconds, 0.97 * serial->makespan_seconds);
  EXPECT_LT(overlap->makespan_seconds, 0.97 * aligned->makespan_seconds);
}

TEST_F(SchedTest, AttributionSumsToLatency) {
  for (const SchedPolicy policy :
       {SchedPolicy::kSerial, SchedPolicy::kPhaseAligned, SchedPolicy::kOverlap,
        SchedPolicy::kWeightedFair}) {
    SchedulerConfig sc;
    sc.policy = policy;
    std::vector<SchedQuery> queries = SameArrival(3);
    queries[1].arrival_seconds = 0.5;
    queries[2].arrival_seconds = 1.0;
    queries[2].weight = 3;
    auto report = RunSchedule(queries, sc);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(CheckScheduleInvariants(*report).ok());
    for (const QueryOutcome& q : report->queries) {
      ASSERT_TRUE(q.completed);
      // sched_queue + the five buckets over four phases == latency, to 1e-9.
      EXPECT_NEAR(q.AttributedSeconds(), q.latency_seconds, 1e-9);
      EXPECT_NEAR(q.latency_seconds, q.finish_seconds - q.arrival_seconds,
                  1e-9);
      double scheduled = q.sched_queue_seconds;
      scheduled += q.scheduled_phases.TotalSeconds();
      EXPECT_NEAR(scheduled, q.latency_seconds, 1e-9);
    }
  }
}

TEST_F(SchedTest, WeightedFairFavorsTheHeavierQuery) {
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kWeightedFair;
  std::vector<SchedQuery> queries = SameArrival(2);
  queries[0].profile = (*profiles_)[0];
  queries[1].profile = (*profiles_)[0];  // identical work
  queries[1].weight = 4;
  auto report = RunSchedule(queries, sc);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(CheckScheduleInvariants(*report).ok());
  EXPECT_LT(report->queries[1].latency_seconds,
            report->queries[0].latency_seconds);
}

// Network stages split the fabric by weight, exactly as compute stages
// split the cores: with weights 2 and 1 the heavier query gets 2/3 of the
// fabric until it finishes its 1 s of solo network work at 1.5 s; the lighter
// one has 0.5 s left by then and finishes it alone at 2.0 s.
TEST_F(SchedTest, NetworkStagesSplitTheFabricByWeight) {
  auto report = RunNetOnly({2, 1});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(CheckScheduleInvariants(*report).ok());
  EXPECT_NEAR(report->queries[0].finish_seconds, 1.5, 1e-12);
  EXPECT_NEAR(report->queries[1].finish_seconds, 2.0, 1e-12);
}

TEST_F(SchedTest, AdmissionBoundsAreFirstClassOutcomes) {
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kOverlap;
  sc.admission.max_concurrent = 1;
  sc.admission.max_queue_length = 1;
  auto report = RunSchedule(SameArrival(3), sc);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(CheckScheduleInvariants(*report).ok());
  EXPECT_EQ(report->completed, 2u);
  EXPECT_EQ(report->rejected, 1u);
  EXPECT_TRUE(report->queries[2].rejected);
  // The queued query's admission wait is attributed to sched_queue.
  EXPECT_GT(report->queries[1].sched_queue_seconds, 0);
  EXPECT_NEAR(report->queries[1].admit_seconds,
              report->queries[0].finish_seconds, 1e-9);
}

TEST_F(SchedTest, MemoryBudgetRejectsOversizedQueries) {
  SchedulerConfig sc;
  sc.admission.memory_budget_bytes = (*profiles_)[0].memory_bytes * 0.5;
  auto report = RunSchedule(SameArrival(1), sc);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed, 0u);
  EXPECT_EQ(report->rejected, 1u);
}

TEST_F(SchedTest, IdleWindowsAreWellFormedAndLabeled) {
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kSerial;  // serial leaves the most gaps
  auto report = RunSchedule(SameArrival(3), sc);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->idle_windows.empty());
  for (const SchedIdleWindow& w : report->idle_windows) {
    EXPECT_LT(w.begin_seconds, w.end_seconds);
    EXPECT_LE(w.end_seconds, report->makespan_seconds + 1e-9);
    if (w.candidate_query >= 0) {
      EXPECT_LT(static_cast<size_t>(w.candidate_query),
                report->queries.size());
    }
  }
}

TEST_F(SchedTest, ScheduleJsonRoundTrips) {
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kOverlap;
  sc.admission.max_concurrent = 2;
  sc.admission.max_queue_length = 1;
  auto report = RunSchedule(SameArrival(3), sc);
  ASSERT_TRUE(report.ok());
  const std::string json = ScheduleReportToJson(*report);
  auto parsed = ParseScheduleReport(json);
  ASSERT_TRUE(parsed.ok());
  // Canonical form: serializing the parse reproduces the bytes.
  EXPECT_EQ(ScheduleReportToJson(*parsed), json);
  ASSERT_TRUE(CheckScheduleInvariants(*parsed).ok());
  EXPECT_EQ(parsed->policy, report->policy);
  EXPECT_EQ(parsed->queries.size(), report->queries.size());
  EXPECT_EQ(parsed->idle_windows.size(), report->idle_windows.size());
}

TEST_F(SchedTest, DeterministicAcrossReruns) {
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kOverlap;
  std::vector<SchedQuery> queries = SameArrival(3);
  queries[1].arrival_seconds = 0.25;
  auto a = RunSchedule(queries, sc);
  auto b = RunSchedule(queries, sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ScheduleReportToJson(*a), ScheduleReportToJson(*b));
}

}  // namespace
}  // namespace rdmajoin
