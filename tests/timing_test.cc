#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "timing/makespan.h"
#include "timing/replay.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

// ---------- Makespan ----------

TEST(Makespan, EmptyAndSingleWorker) {
  EXPECT_EQ(LptMakespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(LptMakespan({1, 2, 3}, 1), 6.0);
}

TEST(Makespan, PerfectlyDivisibleTasks) {
  EXPECT_DOUBLE_EQ(LptMakespan({1, 1, 1, 1}, 4), 1.0);
  EXPECT_DOUBLE_EQ(LptMakespan({2, 2, 1, 1, 1, 1}, 2), 4.0);
}

TEST(Makespan, DominantTaskSetsLowerBound) {
  EXPECT_DOUBLE_EQ(LptMakespan({10, 1, 1, 1}, 4), 10.0);
}

TEST(Makespan, NeverBelowAverageLoadNorAboveSum) {
  const std::vector<double> tasks{3, 1, 4, 1, 5, 9, 2, 6};
  for (uint32_t w : {1u, 2u, 3u, 5u, 8u}) {
    const double ms = LptMakespan(tasks, w);
    double sum = 0, max = 0;
    for (double t : tasks) {
      sum += t;
      max = std::max(max, t);
    }
    EXPECT_GE(ms, std::max(sum / w, max) - 1e-12);
    EXPECT_LE(ms, sum + 1e-12);
  }
}

TEST(Makespan, MoreWorkersNeverIncreaseMakespan) {
  const std::vector<double> tasks{7, 3, 3, 2, 2, 2, 1, 1, 1, 1};
  double prev = 1e100;
  for (uint32_t w = 1; w <= 12; ++w) {
    const double ms = LptMakespan(tasks, w);
    EXPECT_LE(ms, prev + 1e-12);
    prev = ms;
  }
}

/// LPT over a min-heap of worker loads: the reference LptMakespan's linear
/// argmin must match bit for bit.
double HeapLptMakespan(std::vector<double> tasks, uint32_t workers) {
  std::sort(tasks.begin(), tasks.end(), std::greater<double>());
  std::priority_queue<double, std::vector<double>, std::greater<double>> loads;
  for (uint32_t w = 0; w < workers; ++w) loads.push(0.0);
  double makespan = 0.0;
  for (double t : tasks) {
    const double load = loads.top() + t;
    loads.pop();
    makespan = std::max(makespan, load);
    loads.push(load);
  }
  return makespan;
}

TEST(Makespan, MatchesHeapSchedulingExactly) {
  Random rng(2024);
  for (int round = 0; round < 200; ++round) {
    const uint64_t n = rng.Uniform(300);
    std::vector<double> tasks(n);
    // Odd rounds draw from a few values, so many worker loads tie.
    for (double& t : tasks) {
      t = round % 2 == 0 ? rng.NextDouble() * 1e-3
                         : static_cast<double>(rng.Uniform(4)) * 0.125;
    }
    const uint32_t workers = 1 + static_cast<uint32_t>(rng.Uniform(16));
    ASSERT_EQ(LptMakespan(tasks, workers), HeapLptMakespan(tasks, workers))
        << "round " << round << ", " << n << " tasks, " << workers << " workers";
  }
}

// ---------- Replay ----------

/// A minimal hand-built trace: 2 machines, 1 partitioning thread each, one
/// send per thread. All quantities chosen for closed-form verification.
RunTrace TinyTrace(double scale = 1.0) {
  RunTrace trace;
  trace.scale_up = scale;
  trace.machines.resize(2);
  for (uint32_t m = 0; m < 2; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.histogram_bytes = 6000;  // bytes
    mt.net_threads.resize(1);
    mt.net_threads[0].compute_bytes = 1910;  // 2 us at 955 B/us... (scaled)
    mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
    mt.local_pass_bytes = 1910;
    mt.tasks.push_back(BuildProbeTask{800, 1600});
  }
  return trace;
}

ClusterConfig TinyCluster() {
  ClusterConfig c = FdrCluster(2, 2);  // 1 partitioning thread + receiver
  // Use round numbers: psPart 955 B/s (!), net 1000 B/s, etc. by scaling the
  // cost model down to byte-granularity rates.
  c.costs.partition_bytes_per_sec = 955.0;
  c.costs.histogram_bytes_per_sec = 3000.0;
  c.costs.build_bytes_per_sec = 800.0;
  c.costs.probe_bytes_per_sec = 1600.0;
  c.costs.memcpy_bytes_per_sec = 1e15;  // Receiver never binds.
  c.fabric.egress_bytes_per_sec = 1000.0;
  c.fabric.ingress_bytes_per_sec = 1000.0;
  c.fabric.message_rate_per_host = 0;
  c.fabric.base_latency_seconds = 0;
  return c;
}

TEST(Replay, OptionsForAConfigCarryItsReplayFields) {
  const ReplayOptions defaults = ReplayOptionsFor(JoinConfig());
  EXPECT_EQ(defaults.metrics, nullptr);
  EXPECT_TRUE(defaults.spans.enabled);
  EXPECT_EQ(defaults.spans.max_bytes, SpanConfig().max_bytes);
  EXPECT_EQ(defaults.span_recorder, nullptr);
  EXPECT_EQ(defaults.injector, nullptr);

  JoinConfig config;
  MetricsRegistry metrics;
  SpanRecorder recorder;
  const FaultInjector injector;
  config.metrics = &metrics;
  config.enable_spans = false;
  config.span_recorder = &recorder;
  config.fault_injector = &injector;
  const ReplayOptions options = ReplayOptionsFor(config);
  EXPECT_EQ(options.metrics, &metrics);
  EXPECT_FALSE(options.spans.enabled);
  EXPECT_EQ(options.span_recorder, &recorder);
  EXPECT_EQ(options.injector, &injector);
}

TEST(Replay, HistogramPhaseUsesAllCores) {
  ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, TinyTrace());
  // 6000 bytes / (2 cores * 3000 B/s) = 1 s.
  EXPECT_NEAR(r.phases.histogram_seconds, 1.0, 1e-9);
}

TEST(Replay, NetworkPassComputePlusTransfer) {
  ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, TinyTrace());
  // Thread computes 955 bytes (1 s), posts 1000-byte send (1 s at 1000 B/s),
  // computes remaining 955 bytes (1 s). Send completes at 2 s; thread
  // finishes at 2 s; phase = 2 s.
  EXPECT_NEAR(r.phases.network_partition_seconds, 2.0, 1e-9);
  EXPECT_NEAR(r.net_thread_finish_seconds[0], 2.0, 1e-9);
  EXPECT_NEAR(r.last_completion_seconds, 2.0, 1e-9);
}

TEST(Replay, LocalPassChargesRecordedBytes) {
  RunTrace trace = TinyTrace();
  ReplayReport one = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  // 1910 bytes / (2 cores * 955 B/s) = 1 s.
  EXPECT_NEAR(one.phases.local_partition_seconds, 1.0, 1e-9);
  for (auto& m : trace.machines) m.local_pass_bytes *= 2;  // Two passes.
  ReplayReport two = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  EXPECT_NEAR(two.phases.local_partition_seconds, 2.0, 1e-9);
}

TEST(Replay, BuildProbeUsesTaskRates) {
  ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, TinyTrace());
  // One task per machine: 800/800 + 1600/1600 = 2 s on one core.
  EXPECT_NEAR(r.phases.build_probe_seconds, 2.0, 1e-9);
}

TEST(Replay, ScaleUpMultipliesVirtualTime) {
  ReplayReport r1 = ReplayTrace(TinyCluster(), JoinConfig{}, TinyTrace(1.0));
  ReplayReport r2 = ReplayTrace(TinyCluster(), JoinConfig{}, TinyTrace(2.0));
  EXPECT_NEAR(r2.phases.histogram_seconds, 2 * r1.phases.histogram_seconds, 1e-9);
  EXPECT_NEAR(r2.phases.local_partition_seconds,
              2 * r1.phases.local_partition_seconds, 1e-9);
  EXPECT_NEAR(r2.phases.build_probe_seconds, 2 * r1.phases.build_probe_seconds,
              1e-9);
}

TEST(Replay, NonInterleavedBlocksOnEachSend) {
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(2);
  for (uint32_t m = 0; m < 2; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.net_threads.resize(1);
    // Two back-to-back sends with zero compute between them.
    mt.net_threads[0].compute_bytes = 955;
    mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
    mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
  }
  ClusterConfig cluster = TinyCluster();
  ReplayReport inter = ReplayTrace(cluster, JoinConfig{}, trace);
  cluster.interleave = InterleavePolicy::kNonInterleaved;
  ReplayReport blocking = ReplayTrace(cluster, JoinConfig{}, trace);
  // Interleaved: compute 1s, both sends pipelined FIFO: done at 3 s.
  EXPECT_NEAR(inter.phases.network_partition_seconds, 3.0, 1e-9);
  // Non-interleaved is no faster (here the link is the bottleneck either
  // way, so both take 3 s; the difference appears when compute overlaps).
  EXPECT_GE(blocking.phases.network_partition_seconds,
            inter.phases.network_partition_seconds - 1e-9);
}

TEST(Replay, InterleavingOverlapsComputeWithTransfer) {
  // One thread, two sends separated by 1 s of compute each. Interleaved:
  // transfer of send 1 overlaps compute toward send 2.
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(2);
  for (uint32_t m = 0; m < 2; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.net_threads.resize(1);
    mt.net_threads[0].compute_bytes = 1910;
    mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
    mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 1910});
  }
  ClusterConfig cluster = TinyCluster();
  ReplayReport inter = ReplayTrace(cluster, JoinConfig{}, trace);
  cluster.interleave = InterleavePolicy::kNonInterleaved;
  ReplayReport blocking = ReplayTrace(cluster, JoinConfig{}, trace);
  // Interleaved: compute [0,1], send1 [1,2] overlaps compute [1,2];
  // send2 posted at 2, done at 3. Total 3 s.
  EXPECT_NEAR(inter.phases.network_partition_seconds, 3.0, 1e-9);
  // Blocking: compute [0,1], send1 [1,2], compute [2,3], send2 [3,4].
  EXPECT_NEAR(blocking.phases.network_partition_seconds, 4.0, 1e-9);
}

TEST(Replay, CreditExhaustionStallsThread) {
  // One thread emits 4 sends to the same slot with no compute in between.
  // With 2 credits the thread stalls until earlier transfers finish; the
  // final send cannot be posted before 2 completions happened.
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(2);
  for (uint32_t m = 0; m < 2; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.net_threads.resize(1);
    mt.net_threads[0].compute_bytes = 955;
    for (int i = 0; i < 4; ++i) {
      mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
    }
  }
  ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  // Compute 1 s, then 4 sequential 1 s transfers on the link: last done at 5.
  EXPECT_NEAR(r.phases.network_partition_seconds, 5.0, 1e-9);
  // The thread itself could only post send #3 after send #1 completed (2 s)
  // and send #4 after send #2 (3 s): it finishes at 3 s, not 1 s.
  EXPECT_NEAR(r.net_thread_finish_seconds[0], 3.0, 1e-9);
}

TEST(Replay, WorkCountersArePinnedForAFixedTrace) {
  // The trace of CreditExhaustionStallsThread: per machine, one thread posts
  // four 1000-byte sends to the other machine on 2 credits. Every counter is
  // deterministic, so each is pinned exactly.
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(2);
  for (uint32_t m = 0; m < 2; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.net_threads.resize(1);
    mt.net_threads[0].compute_bytes = 955;
    for (int i = 0; i < 4; ++i) {
      mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
    }
  }
  const ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  // Per thread: 4 posts, 2 credit blocks, 1 finish; plus 4 fabric advances
  // (drains at 2, 3, 4 and 5 s, both links at once).
  EXPECT_EQ(r.counters.events, 18u);
  EXPECT_EQ(r.counters.fabric_steps, 4u);
  // One materialisation per link at its first rate assignment and one per
  // drain instant; the second activation leaves 0->1's rate unchanged.
  EXPECT_EQ(r.counters.link_updates, 10u);
  // 0->1 at the first activation, both links at the second.
  EXPECT_EQ(r.counters.reshared_links, 3u);
  // One constant-rate segment per message.
  EXPECT_EQ(r.counters.telemetry_callbacks, 8u);

  ReplayOptions no_spans;
  no_spans.spans.enabled = false;
  const ReplayReport off = ReplayTrace(TinyCluster(), JoinConfig{}, trace, no_spans);
  EXPECT_EQ(off.counters.telemetry_callbacks, 0u);
  EXPECT_EQ(off.counters.link_updates, r.counters.link_updates);
  EXPECT_EQ(off.counters.events, r.counters.events);
}

TEST(Replay, SpanDatasetOfAReceiveOnlyMachineValidates) {
  // Machine 1 has no partitioning thread, so no thread mark names it; the
  // dataset's machine count still covers the span and segment sent to it.
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(2);
  trace.machines[0].net_threads.resize(1);
  trace.machines[0].net_threads[0].compute_bytes = 955;
  trace.machines[0].net_threads[0].sends.push_back(SendRecord{1, 0, 1000, 955});
  ASSERT_TRUE(ValidateTrace(trace).ok());
  const ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  ASSERT_NE(r.spans, nullptr);
  const SpanDataset ds = r.spans->Snapshot();
  EXPECT_EQ(ds.machines, 2u);
  ASSERT_EQ(ds.threads.size(), 1u);
  ASSERT_FALSE(ds.segments.empty());
  EXPECT_EQ(ds.segments[0].dst, 1u);
  auto back = ParseSpanDatasetJson(SpanDatasetToJson(ds));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->machines, 2u);
}

TEST(ReplayDeathTest, StalledEventLoopAborts) {
  // With no credit per slot every thread blocks before its first send and
  // nothing can wake it. The loop used to end there and report phase times
  // without the unposted sends.
  JoinConfig no_credits;
  no_credits.buffers_per_partition = 0;
  EXPECT_DEATH(ReplayTrace(TinyCluster(), no_credits, TinyTrace()),
               "replay stalled with 2 thread\\(s\\) unfinished after posting "
               "0 of 2 sends");
}

TEST(Replay, ReceiverCopyTracked) {
  ClusterConfig cluster = TinyCluster();
  cluster.costs.memcpy_bytes_per_sec = 500.0;  // Slow receiver: 2 s per KB.
  ReplayReport r = ReplayTrace(cluster, JoinConfig{}, TinyTrace());
  // Each machine receives one 1000-byte message at t=2: service 2 s -> ends 4.
  EXPECT_NEAR(r.receiver_busy_seconds[0], 2.0, 1e-9);
  EXPECT_NEAR(r.phases.network_partition_seconds, 4.0, 1e-9);
}

TEST(Replay, ReceiveRingBackpressureThrottlesSender) {
  // One thread sends 4 messages back to back into a machine whose receiver
  // services each in 2 s. With a generous ring the sender never feels it;
  // with a 1-slot ring each message must wait for the previous service.
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(2);
  for (uint32_t m = 0; m < 2; ++m) {
    MachineTrace& mt = trace.machines[m];
    mt.net_threads.resize(1);
    mt.net_threads[0].compute_bytes = 955;
    for (int i = 0; i < 4; ++i) {
      mt.net_threads[0].sends.push_back(SendRecord{1 - m, 0, 1000, 955});
    }
  }
  ClusterConfig cluster = TinyCluster();
  cluster.costs.memcpy_bytes_per_sec = 500.0;  // 2 s service per message.
  JoinConfig roomy;
  roomy.recv_buffers_per_link = 64;
  JoinConfig tight;
  tight.recv_buffers_per_link = 1;
  ReplayReport loose = ReplayTrace(cluster, roomy, trace);
  ReplayReport rnr = ReplayTrace(cluster, tight, trace);
  // Either way the phase ends when the receiver drains its 4 x 2 s service
  // chain (starting at the first arrival, t=2): 10 s.
  EXPECT_NEAR(loose.phases.network_partition_seconds, 10.0, 1e-9);
  EXPECT_NEAR(rnr.phases.network_partition_seconds, 10.0, 1e-9);
  // The backpressure is visible at the sender: with one ring slot, each
  // buffer credit waits for the receiver to service the previous message,
  // so the thread finishes posting later (t=4 instead of t=3).
  EXPECT_NEAR(loose.net_thread_finish_seconds[0], 3.0, 1e-9);
  EXPECT_NEAR(rnr.net_thread_finish_seconds[0], 4.0, 1e-9);
}

TEST(Replay, OneSidedTransportHasNoReceiverCost) {
  ClusterConfig cluster = TinyCluster();
  cluster.transport = TransportKind::kRdmaMemory;
  cluster.costs.memcpy_bytes_per_sec = 1.0;  // Would be catastrophic if used.
  ReplayReport r = ReplayTrace(cluster, JoinConfig{}, TinyTrace());
  EXPECT_NEAR(r.phases.network_partition_seconds, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.receiver_busy_seconds[0], 0.0);
}

TEST(Replay, TcpChargesSenderOverheads) {
  ClusterConfig cluster = TinyCluster();
  cluster.transport = TransportKind::kTcp;
  cluster.tcp.bytes_per_sec = 1000.0;
  cluster.tcp.per_message_seconds = 0.5;
  cluster.tcp.sender_copy_bytes_per_sec = 1000.0;  // 1 s copy per send.
  cluster.tcp.receiver_bytes_per_sec = 1e15;
  ReplayReport r = ReplayTrace(cluster, JoinConfig{}, TinyTrace());
  // Compute 1 s + copy 1 s + syscall 0.5 s -> send posted at 2.5, transfer
  // 1 s -> 3.5; the receiving kernel pays another 0.5 s per message.
  EXPECT_NEAR(r.phases.network_partition_seconds, 4.0, 1e-9);
  EXPECT_NEAR(r.receiver_busy_seconds[0], 0.5, 1e-9);
}

TEST(Replay, SetupRegistrationDelaysPhase) {
  RunTrace trace = TinyTrace();
  trace.machines[0].setup_registration_seconds = 0.75;
  ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  EXPECT_NEAR(r.phases.network_partition_seconds, 2.75, 1e-9);
}

TEST(Replay, PerSendRegistrationSlowsThread) {
  RunTrace trace = TinyTrace();
  for (auto& m : trace.machines) m.per_send_registration_seconds = 0.25;
  ReplayReport r = ReplayTrace(TinyCluster(), JoinConfig{}, trace);
  // Send posted at 1.25 instead of 1.0; completes 2.25.
  EXPECT_NEAR(r.phases.network_partition_seconds, 2.25, 1e-9);
}

TEST(Replay, SingleMachineTraceHasNoNetworkActivity) {
  RunTrace trace;
  trace.scale_up = 1.0;
  trace.machines.resize(1);
  trace.machines[0].histogram_bytes = 3000;
  trace.machines[0].net_threads.resize(1);
  trace.machines[0].net_threads[0].compute_bytes = 955;
  trace.machines[0].local_pass_bytes = 1910;
  trace.machines[0].tasks.push_back(BuildProbeTask{800, 0});
  ClusterConfig cluster = TinyCluster();
  cluster.num_machines = 1;
  cluster.fabric.num_hosts = 1;
  ReplayReport r = ReplayTrace(cluster, JoinConfig{}, trace);
  EXPECT_NEAR(r.phases.network_partition_seconds, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.last_completion_seconds, 0.0);
}

}  // namespace
}  // namespace rdmajoin
