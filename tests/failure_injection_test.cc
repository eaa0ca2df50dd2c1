// Failure injection: resource exhaustion and protection faults at every
// stage of the distributed join must surface as clean Status errors (never
// crashes, never partial results reported as success), and accounting must
// return to a consistent state.

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "operator_runs.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"
#include "rdma/buffer_pool.h"
#include "util/metrics.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

JoinConfig FastConfig() {
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  return jc;
}

Workload SmallWorkload(uint32_t machines, uint64_t tuples = 20000) {
  WorkloadSpec spec;
  spec.inner_tuples = tuples;
  spec.outer_tuples = tuples * 2;
  auto w = GenerateWorkload(spec, machines);
  EXPECT_TRUE(w.ok());
  return std::move(*w);
}

TEST(FailureInjection, InputLargerThanClusterMemory) {
  Workload w = SmallWorkload(2, 4096);
  JoinConfig jc = FastConfig();
  jc.scale_up = 2.0e6;  // 4096 actual tuples represent ~8 T tuples: hopeless.
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(FailureInjection, PartitionStoreOverflowsMemoryMidSetup) {
  // Fits as input but not once the partition store doubles the footprint:
  // per machine 2 x 4096M x 16B / 2 = 65.5 GB input, 131 GB with the store.
  Workload w = SmallWorkload(2, 4096);
  JoinConfig jc = FastConfig();
  jc.scale_up = 1.0e6;
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("memory"), std::string::npos);
}

TEST(FailureInjection, EveryOperatorSurvivesExhaustionCleanly) {
  Workload w = SmallWorkload(2, 4096);
  JoinConfig jc = FastConfig();
  jc.scale_up = 2.0e6;
  EXPECT_EQ(DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DistributedSortMergeJoin(QdrCluster(2), jc)
                .Run(w.inner, w.outer)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DistributedAggregate(QdrCluster(2), jc).Run(w.outer).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(FailureInjection, FailedRunLeavesNoLeakedReservations) {
  // Run the same failing join twice: if reservations leaked, the second
  // attempt would fail earlier/differently; and a shrunken-scale retry must
  // succeed afterwards.
  Workload w = SmallWorkload(2, 4096);
  JoinConfig jc = FastConfig();
  jc.scale_up = 1.0e6;
  DistributedJoin join(QdrCluster(2), jc);
  auto first = join.Run(w.inner, w.outer);
  auto second = join.Run(w.inner, w.outer);
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().code(), second.status().code());
  JoinConfig small = FastConfig();
  small.scale_up = 1024.0;
  DistributedJoin retry(QdrCluster(2), small);
  EXPECT_TRUE(retry.Run(w.inner, w.outer).ok());
}

TEST(FailureInjection, PinLimitBlocksRegistrationMidJoin) {
  // A machine whose pinnable memory is tiny cannot register recv rings or
  // buffer pools: the join reports ResourceExhausted instead of crashing.
  // (Section 4.2.2's concern: pinned pages are unavailable to everything
  // else, so deployments cap them.)
  Workload w = SmallWorkload(3);
  ClusterConfig cluster = FdrCluster(3);
  JoinConfig jc = FastConfig();
  // The pin limit is modeled through MemorySpace; drive it via a pathological
  // buffer configuration instead: per-slot buffers so large that their
  // reservation exceeds the machine budget.
  jc.rdma_buffer_bytes = 1ull << 33;  // 8 GiB per buffer, x threads x slots.
  auto result = DistributedJoin(cluster, jc).Run(w.inner, w.outer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(FailureInjection, PoolSurfacesRegistrationFailure) {
  MemorySpace mem(/*capacity=*/1 << 20, /*pin_limit=*/2048);
  ASSERT_TRUE(mem.Reserve(1 << 20).ok());
  RdmaDevice dev(0, &mem, CostModel{});
  RegisteredBufferPool pool(&dev, 1024);
  auto a = pool.Acquire();
  ASSERT_TRUE(a.ok());
  auto b = pool.Acquire();
  ASSERT_TRUE(b.ok());
  auto c = pool.Acquire();  // Third kilobyte exceeds the pin limit.
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing returns the pool to a usable state.
  ASSERT_TRUE(pool.Release(*a).ok());
  auto retry = pool.Acquire();
  EXPECT_TRUE(retry.ok());
  mem.Release(1 << 20);
}

TEST(FailureInjection, MismatchedFragmentationIsRejectedEverywhere) {
  Workload w2 = SmallWorkload(2, 1000);
  JoinConfig jc = FastConfig();
  EXPECT_EQ(DistributedJoin(QdrCluster(3), jc).Run(w2.inner, w2.outer).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DistributedSortMergeJoin(QdrCluster(3), jc)
                .Run(w2.inner, w2.outer)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DistributedAggregate(QdrCluster(3), jc).Run(w2.outer).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FailureInjection, InvalidClusterConfigCaughtBeforeExecution) {
  Workload w = SmallWorkload(2, 1000);
  ClusterConfig broken = QdrCluster(2);
  broken.fabric.congestion_bytes_per_sec_per_extra_host = 1e10;  // Eats all BW.
  auto result = DistributedJoin(broken, FastConfig()).Run(w.inner, w.outer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- Runtime faults (src/fault/): every preset x policy combination must
// end in a clean Status error or the exact correct cardinality -- never a
// crash, never a partial result reported as success. ----

FaultSchedule QpFault(uint64_t ordinal, uint32_t count, bool drop) {
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kQpError;
  e.machine = FaultEvent::kAllMachines;
  e.ordinal = ordinal;
  e.count = count;
  e.drop = drop;
  s.events.push_back(e);
  return s;
}

TEST(RuntimeFaults, QpErrorWithAbortPolicyFailsCleanly) {
  Workload w = SmallWorkload(2);
  const FaultInjector injector(QpFault(/*ordinal=*/0, /*count=*/1, false));
  JoinConfig jc = FastConfig();
  jc.fault_injector = &injector;
  jc.fault_policy = FaultPolicy::kAbort;
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(RuntimeFaults, QpErrorWithRecoveryYieldsExactCardinality) {
  Workload w = SmallWorkload(2);
  const FaultInjector injector(QpFault(/*ordinal=*/0, /*count=*/1, false));
  JoinConfig jc = FastConfig();
  jc.fault_injector = &injector;
  jc.fault_policy = FaultPolicy::kRecover;
  MetricsRegistry metrics;
  jc.metrics = &metrics;
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.matches, w.truth.expected_matches);
  // The retry loop ran and cycled the QP out of the error state.
  const Counter* retries = metrics.FindCounter("fault.send_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GE(retries->value(), 1.0);
  const Counter* recoveries = metrics.FindCounter("fault.qp_recoveries");
  ASSERT_NE(recoveries, nullptr);
  EXPECT_GE(recoveries->value(), 1.0);
}

TEST(RuntimeFaults, DroppedCompletionTimesOutAndRecovers) {
  Workload w = SmallWorkload(2);
  const FaultInjector injector(QpFault(/*ordinal=*/2, /*count=*/2, true));
  JoinConfig jc = FastConfig();
  jc.fault_injector = &injector;
  jc.fault_policy = FaultPolicy::kRecover;
  MetricsRegistry metrics;
  jc.metrics = &metrics;
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.matches, w.truth.expected_matches);
  const Counter* timeouts = metrics.FindCounter("fault.send_timeouts");
  ASSERT_NE(timeouts, nullptr);
  EXPECT_GE(timeouts->value(), 1.0);
}

TEST(RuntimeFaults, RetryBudgetExhaustionAbortsEvenUnderRecovery) {
  Workload w = SmallWorkload(2);
  // More consecutive failures than the retry budget allows.
  const FaultInjector injector(QpFault(/*ordinal=*/0, /*count=*/50, false));
  JoinConfig jc = FastConfig();
  jc.fault_injector = &injector;
  jc.fault_policy = FaultPolicy::kRecover;
  jc.max_send_retries = 3;
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(RuntimeFaults, MidPassLinkFlapDelaysButCompletes) {
  Workload w = SmallWorkload(2);
  for (const Operator op : kAllOperators) {
    SCOPED_TRACE(OperatorName(op));
    JoinConfig jc = FastConfig();
    const OperatorRun baseline = RunOperator(op, QdrCluster(2), jc, w);
    ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();

    // Kill machine 0's link for a window in the middle of the network pass.
    FaultSchedule s;
    FaultEvent e;
    e.kind = FaultKind::kLinkFlap;
    e.machine = 0;
    e.start_seconds = baseline.times.network_partition_seconds * 0.25;
    e.duration_seconds = baseline.times.network_partition_seconds * 0.5;
    s.events.push_back(e);
    const FaultInjector injector(std::move(s));
    jc.fault_injector = &injector;
    const OperatorRun flapped = RunOperator(op, QdrCluster(2), jc, w);
    ASSERT_TRUE(flapped.status.ok()) << flapped.status.ToString();
    EXPECT_TRUE(flapped.exact);
    // Nothing was lost, but the dead window stretched the pass.
    EXPECT_GT(flapped.times.network_partition_seconds,
              baseline.times.network_partition_seconds);
  }
}

TEST(RuntimeFaults, StragglerChargesExcessToFaultRecovery) {
  Workload w = SmallWorkload(2);
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kStraggler;
  e.machine = 1;
  e.start_seconds = 0;
  e.duration_seconds = 1e6;  // covers the whole pass
  e.factor = 0.5;
  s.events.push_back(e);
  const FaultInjector injector(std::move(s));
  for (const Operator op : kAllOperators) {
    SCOPED_TRACE(OperatorName(op));
    JoinConfig jc = FastConfig();
    const OperatorRun baseline = RunOperator(op, QdrCluster(2), jc, w);
    ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
    jc.fault_injector = &injector;
    const OperatorRun result = RunOperator(op, QdrCluster(2), jc, w);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.exact);
    EXPECT_GT(result.times.network_partition_seconds,
              baseline.times.network_partition_seconds);

    // The slowdown lands in the straggler's fault_recovery bucket, and the
    // attribution invariant (components sum to the global phase time) holds
    // with the fifth bucket included.
    const AttributionReport& attr = result.attribution;
    ASSERT_EQ(attr.machines.size(), 2u);
    const PhaseAttribution& straggler =
        attr.machines[1].at(JoinPhase::kNetworkPartition);
    EXPECT_GT(straggler.fault_recovery_seconds, 0.0);
    for (uint32_t m = 0; m < 2; ++m) {
      const PhaseAttribution& p =
          attr.machines[m].at(JoinPhase::kNetworkPartition);
      EXPECT_NEAR(p.TotalSeconds(), attr.phases.network_partition_seconds, 1e-9);
    }
  }
}

TEST(RuntimeFaults, CreditShrinkSlowsButStaysCorrect) {
  Workload w = SmallWorkload(2);
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kCreditShrink;
  e.machine = FaultEvent::kAllMachines;
  e.start_seconds = 0;
  e.duration_seconds = 1e6;
  e.factor = 0.01;  // floors at one credit per slot
  s.events.push_back(e);
  const FaultInjector injector(std::move(s));
  JoinConfig jc = FastConfig();
  jc.fault_injector = &injector;
  auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.matches, w.truth.expected_matches);
}

TEST(RuntimeFaults, EveryPresetEndsInCleanAbortOrExactResult) {
  Workload w = SmallWorkload(2);
  for (const std::string& name : FaultPresetNames()) {
    auto schedule = MakeFaultPreset(name, /*seed=*/42, 2);
    ASSERT_TRUE(schedule.ok()) << name;
    const FaultInjector injector(std::move(*schedule));
    for (const FaultPolicy policy :
         {FaultPolicy::kAbort, FaultPolicy::kRecover}) {
      JoinConfig jc = FastConfig();
      jc.fault_injector = &injector;
      jc.fault_policy = policy;
      auto result = DistributedJoin(QdrCluster(2), jc).Run(w.inner, w.outer);
      if (result.ok()) {
        EXPECT_EQ(result->stats.matches, w.truth.expected_matches)
            << name << " produced a wrong result instead of aborting";
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
            << name << ": " << result.status().ToString();
      }
    }
  }
}

TEST(RuntimeFaults, AbortedRunLeaksNoBuffersAndRetrySucceeds) {
  // Satellite regression for the exchange abort paths: a mid-flight Ship
  // failure must release every acquired send buffer exactly once. If a
  // buffer leaked (or double-released), the immediate fault-free rerun on
  // the same relations would misbehave; and a second faulted run must fail
  // identically (no state bleeds between runs through the injector, which
  // is stateless).
  Workload w = SmallWorkload(2);
  const FaultInjector injector(QpFault(/*ordinal=*/3, /*count=*/1, false));
  JoinConfig faulty = FastConfig();
  faulty.fault_injector = &injector;
  faulty.fault_policy = FaultPolicy::kAbort;

  auto first = DistributedJoin(QdrCluster(2), faulty).Run(w.inner, w.outer);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);

  auto second = DistributedJoin(QdrCluster(2), faulty).Run(w.inner, w.outer);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().ToString(), first.status().ToString());

  auto clean = DistributedJoin(QdrCluster(2), FastConfig()).Run(w.inner, w.outer);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->stats.matches, w.truth.expected_matches);
}

TEST(RuntimeFaults, PullTransportRejectsUnsupportedFaultsGracefully) {
  // The one-sided (RDMA READ) transport has no send path to retry; a
  // schedule with QP faults must not crash it. Either the run completes
  // with the exact result (faults target a path that does not exist) or it
  // fails cleanly.
  Workload w = SmallWorkload(2);
  const FaultInjector injector(QpFault(/*ordinal=*/0, /*count=*/1, false));
  ClusterConfig cluster = QdrCluster(2);
  cluster.transport = TransportKind::kRdmaRead;
  JoinConfig jc = FastConfig();
  jc.fault_injector = &injector;
  auto result = DistributedJoin(cluster, jc).Run(w.inner, w.outer);
  if (result.ok()) {
    EXPECT_EQ(result->stats.matches, w.truth.expected_matches);
  } else {
    EXPECT_FALSE(result.status().message().empty());
  }
}

}  // namespace
}  // namespace rdmajoin
