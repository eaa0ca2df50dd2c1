// Every distributed operator replays its network pass on a helper thread
// while its local phases run (OverlappedReplay, timing/replay.h). The result
// must be exactly the serial ReplayTrace of the trace the run returns: the
// same doubles in every phase, attribution and per-machine field, the same
// work counters, the same span dataset bytes and the same replay metrics.
// The cases cover each transport, skew with work stealing, a fault
// schedule, an external span recorder and a metrics registry; the tsan
// preset runs them under ThreadSanitizer.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "operator_runs.h"
#include "timing/replay.h"
#include "timing/span_trace.h"
#include "util/metrics.h"

namespace rdmajoin {
namespace {

constexpr uint32_t kMachines = 3;

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void ExpectSamePhases(const PhaseTimes& a, const PhaseTimes& b, const std::string& what) {
  EXPECT_TRUE(BitEqual(a.histogram_seconds, b.histogram_seconds)) << what;
  EXPECT_TRUE(BitEqual(a.network_partition_seconds, b.network_partition_seconds)) << what;
  EXPECT_TRUE(BitEqual(a.local_partition_seconds, b.local_partition_seconds)) << what;
  EXPECT_TRUE(BitEqual(a.build_probe_seconds, b.build_probe_seconds)) << what;
}

void ExpectSameVector(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEqual(a[i], b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// The dataset without the execution layer's device counts, which only an
/// external recorder attached to the devices holds.
std::string ReplaySpansJson(const SpanRecorder* recorder) {
  if (recorder == nullptr) return "";
  SpanDataset ds = recorder->Snapshot();
  ds.devices.clear();
  return SpanDatasetToJson(ds);
}

void ExpectSameReport(const ReplayReport& run, const ReplayReport& serial) {
  ExpectSamePhases(run.phases, serial.phases, "phases");
  ASSERT_EQ(run.machine_phases.size(), serial.machine_phases.size());
  for (size_t m = 0; m < run.machine_phases.size(); ++m) {
    ExpectSamePhases(run.machine_phases[m], serial.machine_phases[m],
                     "machine_phases[" + std::to_string(m) + "]");
  }
  const AttributionReport& ra = run.attribution;
  const AttributionReport& sa = serial.attribution;
  ExpectSamePhases(ra.phases, sa.phases, "attribution.phases");
  EXPECT_EQ(ra.critical_machine, sa.critical_machine);
  ASSERT_EQ(ra.machines.size(), sa.machines.size());
  for (size_t m = 0; m < ra.machines.size(); ++m) {
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      const PhaseAttribution& x = ra.machines[m].phases[p];
      const PhaseAttribution& y = sa.machines[m].phases[p];
      const std::string what =
          "attribution.machines[" + std::to_string(m) + "][" + std::to_string(p) + "]";
      EXPECT_TRUE(BitEqual(x.compute_seconds, y.compute_seconds)) << what;
      EXPECT_TRUE(BitEqual(x.network_seconds, y.network_seconds)) << what;
      EXPECT_TRUE(BitEqual(x.buffer_stall_seconds, y.buffer_stall_seconds)) << what;
      EXPECT_TRUE(BitEqual(x.barrier_wait_seconds, y.barrier_wait_seconds)) << what;
      EXPECT_TRUE(BitEqual(x.fault_recovery_seconds, y.fault_recovery_seconds)) << what;
    }
  }
  ExpectSameVector(run.receiver_busy_seconds, serial.receiver_busy_seconds,
                   "receiver_busy_seconds");
  ExpectSameVector(run.net_thread_finish_seconds, serial.net_thread_finish_seconds,
                   "net_thread_finish_seconds");
  EXPECT_TRUE(BitEqual(run.last_completion_seconds, serial.last_completion_seconds));
  EXPECT_TRUE(BitEqual(run.avg_network_rate_bytes_per_sec,
                       serial.avg_network_rate_bytes_per_sec));
  EXPECT_EQ(run.counters.events, serial.counters.events);
  EXPECT_EQ(run.counters.fabric_steps, serial.counters.fabric_steps);
  EXPECT_EQ(run.counters.link_updates, serial.counters.link_updates);
  EXPECT_EQ(run.counters.reshared_links, serial.counters.reshared_links);
  EXPECT_EQ(run.counters.telemetry_callbacks, serial.counters.telemetry_callbacks);
  EXPECT_GT(run.counters.events, 0u);
  ASSERT_EQ(run.spans != nullptr, serial.spans != nullptr);
  EXPECT_EQ(ReplaySpansJson(run.spans.get()), ReplaySpansJson(serial.spans.get()));
}

/// Every metric the replay writes: the fabric's, and the per-machine phase
/// gauges. The run's registry also holds the execution layer's metrics.
void ExpectSameReplayMetrics(const MetricsRegistry& run, const MetricsRegistry& serial) {
  for (uint32_t h = 0; h < kMachines; ++h) {
    const std::string host = "fabric.host" + std::to_string(h);
    for (const char* counter : {".egress_bytes", ".ingress_bytes"}) {
      const Counter* a = run.FindCounter(host + counter);
      const Counter* b = serial.FindCounter(host + counter);
      ASSERT_TRUE(a != nullptr && b != nullptr) << host << counter;
      EXPECT_TRUE(BitEqual(a->value(), b->value())) << host << counter;
    }
    for (const char* series : {".egress_active_bytes", ".ingress_active_bytes"}) {
      const TimeSeries* a = run.FindTimeSeries(host + series);
      const TimeSeries* b = serial.FindTimeSeries(host + series);
      ASSERT_TRUE(a != nullptr && b != nullptr) << host << series;
      ExpectSameVector(a->buckets(), b->buckets(), host + series);
    }
    const std::string machine = "join.machine" + std::to_string(h);
    for (const char* phase : {".histogram_seconds", ".network_partition_seconds",
                              ".local_partition_seconds", ".build_probe_seconds"}) {
      const Gauge* a = run.FindGauge(machine + phase);
      const Gauge* b = serial.FindGauge(machine + phase);
      ASSERT_TRUE(a != nullptr && b != nullptr) << machine << phase;
      EXPECT_TRUE(BitEqual(a->value(), b->value())) << machine << phase;
    }
  }
  const Counter* a = run.FindCounter("fabric.messages");
  const Counter* b = serial.FindCounter("fabric.messages");
  ASSERT_TRUE(a != nullptr && b != nullptr);
  EXPECT_EQ(a->value(), b->value());
  EXPECT_GT(a->value(), 0);
  const Gauge* ga = run.FindGauge("fabric.active_flows");
  const Gauge* gb = serial.FindGauge("fabric.active_flows");
  ASSERT_TRUE(ga != nullptr && gb != nullptr);
  EXPECT_EQ(ga->max(), gb->max());
  const Histogram* ha = run.FindHistogram("fabric.message_bytes");
  const Histogram* hb = serial.FindHistogram("fabric.message_bytes");
  ASSERT_TRUE(ha != nullptr && hb != nullptr);
  EXPECT_EQ(ha->buckets(), hb->buckets());
  EXPECT_TRUE(BitEqual(ha->sum(), hb->sum()));
}

struct Case {
  const char* name;
  TransportKind transport;
  bool skew;
  bool faults;
  bool external_recorder;
  bool metrics;
};

/// A run's replay and the trace it was replayed from.
struct Replayed {
  Status status;
  ReplayReport replay;
  RunTrace trace;
};

Replayed RunAndKeepTrace(Operator op, const ClusterConfig& cluster,
                         const JoinConfig& config, const Workload& w) {
  Replayed out;
  if (op == Operator::kAggregate) {
    auto result = DistributedAggregate(cluster, config).Run(w.outer);
    out.status = result.status();
    if (result.ok()) {
      out.replay = std::move(result->replay);
      out.trace = std::move(result->trace);
    }
    return out;
  }
  auto result = op == Operator::kHashJoin
                    ? DistributedJoin(cluster, config).Run(w.inner, w.outer)
                    : DistributedSortMergeJoin(cluster, config).Run(w.inner, w.outer);
  out.status = result.status();
  if (result.ok()) {
    out.replay = std::move(result->replay);
    out.trace = std::move(result->trace);
  }
  return out;
}

class OverlappedReplayTest : public testing::TestWithParam<Case> {
 protected:
  static Workload MakeWorkload(bool skew) {
    WorkloadSpec spec;
    spec.inner_tuples = 20000;
    spec.outer_tuples = 40000;
    spec.zipf_theta = skew ? 1.2 : 0.0;
    spec.seed = 42;
    auto w = GenerateWorkload(spec, kMachines);
    EXPECT_TRUE(w.ok());
    return std::move(*w);
  }
};

TEST_P(OverlappedReplayTest, RunEqualsSerialReplayOfItsTrace) {
  const Case& c = GetParam();
  ClusterConfig cluster = QdrCluster(kMachines);
  cluster.transport = c.transport;
  const Workload w = MakeWorkload(c.skew);
  std::unique_ptr<FaultInjector> injector;
  if (c.faults) {
    auto schedule = MakeChaosSchedule(/*seed=*/99, kMachines);
    ASSERT_FALSE(schedule.empty());
    injector = std::make_unique<FaultInjector>(std::move(schedule));
  }
  for (const Operator op : kAllOperators) {
    SCOPED_TRACE(OperatorName(op));
    JoinConfig jc;
    jc.network_radix_bits = 5;
    jc.scale_up = 512.0;
    if (c.skew) {
      jc.assignment = AssignmentPolicy::kSkewAware;
      jc.enable_work_stealing = true;
    }
    if (injector != nullptr) {
      jc.fault_injector = injector.get();
      jc.fault_policy = FaultPolicy::kRecover;
    }
    SpanRecorder external;
    if (c.external_recorder) jc.span_recorder = &external;
    MetricsRegistry run_metrics;
    if (c.metrics) jc.metrics = &run_metrics;

    const Replayed run = RunAndKeepTrace(op, cluster, jc, w);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    if (c.external_recorder) {
      EXPECT_EQ(run.replay.spans.get(), &external);
    }

    // The serial reference: the same options, but a fresh recorder and
    // registry, since the run's also saw the execution layer.
    ReplayOptions serial_options = ReplayOptionsFor(jc);
    serial_options.span_recorder = nullptr;
    MetricsRegistry serial_metrics;
    serial_options.metrics = c.metrics ? &serial_metrics : nullptr;
    const ReplayReport serial = ReplayTrace(cluster, jc, run.trace, serial_options);
    ExpectSameReport(run.replay, serial);
    if (c.metrics) ExpectSameReplayMetrics(run_metrics, serial_metrics);
  }
}

constexpr TransportKind kChannel = TransportKind::kRdmaChannel;
constexpr TransportKind kMemory = TransportKind::kRdmaMemory;

INSTANTIATE_TEST_SUITE_P(
    Cases, OverlappedReplayTest,
    testing::Values(Case{"Channel", kChannel, false, false, false, false},
                    Case{"Memory", kMemory, false, false, false, false},
                    Case{"RdmaRead", TransportKind::kRdmaRead, false, false, false, false},
                    Case{"TcpSocket", TransportKind::kTcp, false, false, false, false},
                    Case{"SkewWorkStealing", kChannel, true, false, false, false},
                    Case{"FaultSchedule", kChannel, false, true, false, false},
                    Case{"ExternalRecorder", kChannel, false, false, true, false},
                    Case{"MetricsRegistry", kChannel, false, false, false, true}),
    [](const testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

TEST(OverlappedReplay, DestroyedWithoutFinishWaitsForTheHelper) {
  // An operator that fails in its local phases returns without Finish. The
  // destructor must wait until the helper has replayed the whole network
  // pass, since the helper reads the trace and writes the recorder.
  const ClusterConfig cluster = QdrCluster(kMachines);
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  spec.seed = 42;
  auto w = GenerateWorkload(spec, kMachines);
  ASSERT_TRUE(w.ok());
  auto result = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());
  uint64_t sends = 0;
  size_t threads = 0;
  for (const MachineTrace& mt : result->trace.machines) {
    threads += mt.net_threads.size();
    for (const ThreadNetTrace& tt : mt.net_threads) sends += tt.sends.size();
  }
  ASSERT_GT(sends, 0u);

  SpanRecorder recorder;
  jc.span_recorder = &recorder;
  auto trace = std::make_unique<RunTrace>(result->trace);
  { OverlappedReplay abandoned(cluster, jc, *trace); }
  trace.reset();  // a helper still reading it would touch freed memory
  const SpanDataset ds = recorder.Snapshot();
  EXPECT_EQ(ds.spans_recorded, sends);
  EXPECT_EQ(ds.threads.size(), threads);  // written after the event loop
}

}  // namespace
}  // namespace rdmajoin
