// Determinism properties of the fault subsystem:
//   1. An empty schedule (or a present-but-inactive injector) leaves every
//      output byte-identical to an injector-free run -- the zero-cost-when-off
//      guarantee the observability layers rely on.
//   2. A fixed (schedule, seed) pair replays bit-identically across reruns:
//      same phase times (bit patterns, not epsilons), same span dataset
//      bytes, same match count.
//   3. An overlapping fault window actually changes the timing (so the
//      byte-identity above is not vacuous).

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "operator_runs.h"
#include "timing/span_trace.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

struct RunOutput {
  PhaseTimes times;
  uint64_t matches = 0;
  std::string span_json;
};

/// Bitwise equality: determinism means the same doubles, not close doubles.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const PhaseTimes& a, const PhaseTimes& b) {
  return BitEqual(a.histogram_seconds, b.histogram_seconds) &&
         BitEqual(a.network_partition_seconds, b.network_partition_seconds) &&
         BitEqual(a.local_partition_seconds, b.local_partition_seconds) &&
         BitEqual(a.build_probe_seconds, b.build_probe_seconds);
}

class FaultDeterminismTest : public testing::Test {
 protected:
  static constexpr uint32_t kMachines = 3;

  static void SetUpTestSuite() {
    WorkloadSpec spec;
    spec.inner_tuples = 30000;
    spec.outer_tuples = 60000;
    spec.seed = 42;
    auto w = GenerateWorkload(spec, kMachines);
    ASSERT_TRUE(w.ok());
    workload_ = new Workload(std::move(*w));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static JoinConfig BaseConfig() {
    JoinConfig jc;
    jc.network_radix_bits = 5;
    jc.scale_up = 512.0;
    return jc;
  }

  static RunOutput Run(Operator op, const FaultInjector* injector,
                       FaultPolicy policy = FaultPolicy::kAbort) {
    JoinConfig jc = BaseConfig();
    jc.fault_injector = injector;
    jc.fault_policy = policy;
    SpanRecorder recorder;
    jc.span_recorder = &recorder;
    const OperatorRun result = RunOperator(op, QdrCluster(kMachines), jc, *workload_);
    RunOutput out;
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    out.times = result.times;
    out.matches = result.rows;
    out.span_json = SpanDatasetToJson(recorder.Snapshot());
    return out;
  }

  static Workload* workload_;
};

Workload* FaultDeterminismTest::workload_ = nullptr;

TEST_F(FaultDeterminismTest, EmptyScheduleIsByteIdenticalToNoInjector) {
  const FaultInjector empty;  // default-constructed: inactive
  for (const Operator op : kAllOperators) {
    SCOPED_TRACE(OperatorName(op));
    const RunOutput without = Run(op, nullptr);
    const RunOutput with_empty = Run(op, &empty);
    EXPECT_TRUE(BitEqual(without.times, with_empty.times));
    EXPECT_EQ(without.matches, with_empty.matches);
    EXPECT_EQ(without.span_json, with_empty.span_json);
  }
}

TEST_F(FaultDeterminismTest, SameScheduleSameSeedReplaysBitIdentically) {
  auto schedule = MakeChaosSchedule(/*seed=*/99, kMachines);
  ASSERT_FALSE(schedule.empty());
  const FaultInjector injector(std::move(schedule));

  const RunOutput first = Run(Operator::kHashJoin, &injector, FaultPolicy::kRecover);
  const RunOutput second = Run(Operator::kHashJoin, &injector, FaultPolicy::kRecover);

  EXPECT_TRUE(BitEqual(first.times, second.times));
  EXPECT_EQ(first.matches, second.matches);
  EXPECT_EQ(first.span_json, second.span_json);
  EXPECT_EQ(first.matches, workload_->truth.expected_matches);
}

TEST_F(FaultDeterminismTest, PresetInjectorsAreStableAcrossReconstruction) {
  // Rebuilding the injector from the same (preset, seed) must not perturb
  // anything either: construction order, map iteration etc. stay hidden.
  auto a = MakeFaultPreset("straggler", /*seed=*/7, kMachines);
  auto b = MakeFaultPreset("straggler", /*seed=*/7, kMachines);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const FaultInjector inj_a(std::move(*a));
  const FaultInjector inj_b(std::move(*b));
  const RunOutput ra = Run(Operator::kHashJoin, &inj_a);
  const RunOutput rb = Run(Operator::kHashJoin, &inj_b);
  EXPECT_TRUE(BitEqual(ra.times, rb.times));
  EXPECT_EQ(ra.span_json, rb.span_json);
}

TEST_F(FaultDeterminismTest, OverlappingFaultWindowActuallyChangesTiming) {
  // Degrade every link to a quarter of its capacity for the whole network
  // pass: the pass must get strictly slower, proving the byte-identity tests
  // above compare runs where the injector has real work to refuse.
  FaultSchedule schedule;
  FaultEvent e;
  e.kind = FaultKind::kLinkDegrade;
  e.machine = FaultEvent::kAllMachines;
  e.start_seconds = 0.0;
  e.duration_seconds = 1e6;
  e.factor = 0.25;
  schedule.events.push_back(e);
  const FaultInjector injector(std::move(schedule));

  const RunOutput baseline = Run(Operator::kHashJoin, nullptr);
  const RunOutput degraded = Run(Operator::kHashJoin, &injector);
  EXPECT_GT(degraded.times.network_partition_seconds,
            baseline.times.network_partition_seconds);
  EXPECT_EQ(degraded.matches, baseline.matches);
}

}  // namespace
}  // namespace rdmajoin
