#include "timing/span_trace.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "timing/replay.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

/// A tiny budget: both rings sized at their 64-entry floor.
SpanConfig TinyConfig() {
  SpanConfig config;
  config.max_bytes = 1024;
  return config;
}

TEST(SpanRecorder, RecordsFullLifecycle) {
  SpanRecorder rec;
  const uint64_t id = rec.BeginSpan(/*machine=*/1, /*thread=*/2, /*slot=*/7,
                                    /*src=*/1, /*dst=*/3, /*wire_bytes=*/4096,
                                    /*pull=*/false, /*posted_time=*/1.0);
  ASSERT_NE(id, 0u);
  rec.MarkStage(id, SpanStage::kCreditAcquired, 1.5);
  rec.MarkStage(id, SpanStage::kFabricAdmitted, 1.6);
  rec.MarkStage(id, SpanStage::kDelivered, 2.0);
  rec.MarkStage(id, SpanStage::kCompleted, 2.25);
  rec.SetFlow(id, 42);
  rec.SetReceiverService(id, 2.0, 2.1);

  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.spans.size(), 1u);
  const WrSpan& s = ds.spans[0];
  EXPECT_TRUE(s.complete());
  EXPECT_DOUBLE_EQ(s.duration(), 1.25);
  EXPECT_DOUBLE_EQ(s.StageSeconds(SpanStage::kCreditAcquired), 0.5);
  EXPECT_NEAR(s.StageSeconds(SpanStage::kFabricAdmitted), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(s.StageSeconds(SpanStage::kDelivered), 0.4);
  EXPECT_DOUBLE_EQ(s.StageSeconds(SpanStage::kCompleted), 0.25);
  EXPECT_EQ(s.flow, 42u);
  EXPECT_EQ(s.machine, 1u);
  EXPECT_EQ(s.dst, 3u);
  EXPECT_DOUBLE_EQ(s.recv_start, 2.0);
  // The four stage intervals reassemble the duration exactly.
  double sum = 0;
  for (int i = 1; i < kNumSpanStages; ++i) {
    sum += s.StageSeconds(static_cast<SpanStage>(i));
  }
  EXPECT_DOUBLE_EQ(sum, s.duration());
}

TEST(SpanRecorder, DisabledRecorderRecordsNothing) {
  SpanConfig config;
  config.enabled = false;
  SpanRecorder rec(config);
  EXPECT_EQ(rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0), 0u);
  rec.MarkStage(1, SpanStage::kDelivered, 1.0);
  rec.OnFlowSegment(1, 0, 1, 0.0, 1.0, 100.0, RateConstraint::kSenderEgress, 0);
  rec.OnWrPosted(0, WorkCompletion::Op::kSend);
  rec.AddThreadMark(ThreadMark{});
  rec.ExpectSpans(10);  // A disabled recorder holds no promise either.
  const SpanDataset ds = rec.Snapshot();
  EXPECT_TRUE(ds.spans.empty());
  EXPECT_TRUE(ds.segments.empty());
  EXPECT_TRUE(ds.threads.empty());
  EXPECT_TRUE(ds.devices.empty());
  EXPECT_EQ(ds.spans_recorded, 0u);
  EXPECT_EQ(ds.late_stage_updates, 0u);
}

TEST(SpanRecorder, CapacityFollowsByteBudget) {
  SpanConfig small = TinyConfig();
  SpanRecorder tiny(small);
  EXPECT_EQ(tiny.span_capacity(), 64u);
  EXPECT_EQ(tiny.segment_capacity(), 64u);

  SpanConfig big;
  big.max_bytes = 64 * 1024 * 1024;
  SpanRecorder large(big);
  EXPECT_GT(large.span_capacity(), tiny.span_capacity());
  EXPECT_GT(large.segment_capacity(), tiny.segment_capacity());
  // The rings respect the budget split: capacity * entry size stays within
  // each ring's share of the budget.
  EXPECT_LE(large.span_capacity() * sizeof(WrSpan), big.max_bytes);
  EXPECT_LE(large.segment_capacity() * sizeof(FlowSegment), big.max_bytes);
}

TEST(SpanRecorder, RingEvictsOldestDeterministically) {
  SpanRecorder rec(TinyConfig());
  const size_t cap = rec.span_capacity();
  const size_t total = cap + 10;
  for (size_t i = 0; i < total; ++i) {
    const uint64_t id = rec.BeginSpan(0, 0, 0, 0, 1, 64, false,
                                      static_cast<double>(i));
    EXPECT_EQ(id, i + 1);
  }
  EXPECT_EQ(rec.spans_recorded(), total);
  EXPECT_EQ(rec.spans_dropped(), 10u);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.spans.size(), cap);
  // Exactly the oldest 10 ids were evicted.
  EXPECT_EQ(ds.spans.front().id, 11u);
  EXPECT_EQ(ds.spans.back().id, total);
  for (size_t i = 1; i < ds.spans.size(); ++i) {
    EXPECT_EQ(ds.spans[i].id, ds.spans[i - 1].id + 1);
  }
}

TEST(SpanRecorder, LateStageUpdatesOnEvictedSpansAreCounted) {
  SpanRecorder rec(TinyConfig());
  const uint64_t first = rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0);
  for (size_t i = 0; i < rec.span_capacity(); ++i) {
    rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 1.0);
  }
  // `first` has been overwritten; its stage update must not corrupt the
  // current occupant of the slot.
  rec.MarkStage(first, SpanStage::kDelivered, 9.0);
  EXPECT_EQ(rec.late_stage_updates(), 1u);
  const SpanDataset ds = rec.Snapshot();
  for (const WrSpan& s : ds.spans) {
    EXPECT_EQ(s.stage[static_cast<int>(SpanStage::kDelivered)], kSpanUnset);
  }
}

// ---------- ExpectSpans ----------

/// Drives one seeded random call sequence into two recorders of the same
/// budget: `promised` hears every promise (ExpectSpans), `plain` none.
class PromiseDriver {
 public:
  PromiseDriver(uint64_t max_bytes, uint64_t seed)
      : promised_(Config(max_bytes)), plain_(Config(max_bytes)), rng_(seed) {}

  size_t capacity() const { return plain_.span_capacity(); }

  /// Begins `n` spans, promised to `promised_` when `promise` is set. Run
  /// interleaves the begins with updates of all four kinds to ids up to
  /// three rings back (and a few not yet begun) and with flow segments, and
  /// ends with a tail of updates after the last begin.
  void Phase(uint64_t n, bool promise) {
    if (promise) Promise(n);
    Run(n);
  }
  void Promise(uint64_t n) { promised_.ExpectSpans(n); }
  void Run(uint64_t n) {
    uint64_t begun = 0;
    while (begun < n) {
      const uint64_t action = rng_.Uniform(100);
      if (action < 40) {
        Begin();
        ++begun;
      } else if (action < 90) {
        Update();
      } else {
        Segment();
      }
    }
    for (int i = 0; i < 200; ++i) Update();
  }

  /// Both recorders agree on every counter and on the dataset's bytes.
  void ExpectSame(const std::string& where) const {
    EXPECT_EQ(promised_.spans_recorded(), plain_.spans_recorded()) << where;
    EXPECT_EQ(promised_.spans_dropped(), plain_.spans_dropped()) << where;
    EXPECT_EQ(promised_.segments_recorded(), plain_.segments_recorded())
        << where;
    EXPECT_EQ(promised_.segments_dropped(), plain_.segments_dropped()) << where;
    EXPECT_EQ(promised_.late_stage_updates(), plain_.late_stage_updates())
        << where;
    const std::string a = SpanDatasetToJson(promised_.Snapshot());
    const std::string b = SpanDatasetToJson(plain_.Snapshot());
    EXPECT_TRUE(a == b) << where << ": datasets differ (" << a.size() << " vs "
                        << b.size() << " bytes)";
  }

  uint64_t late_stage_updates() const { return plain_.late_stage_updates(); }

 private:
  static SpanConfig Config(uint64_t max_bytes) {
    SpanConfig config;
    config.max_bytes = max_bytes;
    return config;
  }

  void Begin() {
    const auto src = static_cast<uint32_t>(rng_.Uniform(4));
    const auto dst = static_cast<uint32_t>((src + 1 + rng_.Uniform(3)) % 4);
    const auto machine = static_cast<uint32_t>(rng_.Uniform(4));
    const auto thread = static_cast<uint32_t>(rng_.Uniform(3));
    const auto slot = static_cast<uint32_t>(rng_.Uniform(16));
    const double bytes = 64.0 * static_cast<double>(1 + rng_.Uniform(8));
    const bool pull = rng_.Uniform(5) == 0;
    now_ += 0.25;
    const uint64_t a = promised_.BeginSpan(machine, thread, slot, src, dst,
                                           bytes, pull, now_);
    const uint64_t b =
        plain_.BeginSpan(machine, thread, slot, src, dst, bytes, pull, now_);
    EXPECT_EQ(a, b);
    last_id_ = b;
  }

  void Update() {
    // Ids from three rings back up to two past the newest (not yet begun);
    // one update in four straddles the eviction point.
    const uint64_t back = rng_.Uniform(4) == 0
                              ? capacity() + rng_.Uniform(3)
                              : rng_.Uniform(3 * capacity() + 3);
    if (back > last_id_ + 1) return;
    const uint64_t id = last_id_ + 2 - back;
    now_ += 0.125;
    switch (rng_.Uniform(4)) {
      case 0: {
        const auto stage = static_cast<SpanStage>(1 + rng_.Uniform(4));
        promised_.MarkStage(id, stage, now_);
        plain_.MarkStage(id, stage, now_);
        break;
      }
      case 1:
        promised_.SetFlow(id, id + 7);
        plain_.SetFlow(id, id + 7);
        break;
      case 2:
        promised_.SetReceiverService(id, now_, now_ + 0.5);
        plain_.SetReceiverService(id, now_, now_ + 0.5);
        break;
      default: {
        const auto retries = static_cast<uint32_t>(1 + rng_.Uniform(3));
        promised_.SetFaultInfo(id, retries, 0.5 * retries);
        plain_.SetFaultInfo(id, retries, 0.5 * retries);
        break;
      }
    }
  }

  void Segment() {
    const auto src = static_cast<uint32_t>(rng_.Uniform(4));
    const auto dst = static_cast<uint32_t>((src + 1 + rng_.Uniform(3)) % 4);
    now_ += 0.0625;
    ++flow_;
    for (SpanRecorder* r : {&promised_, &plain_}) {
      r->OnFlowSegment(flow_, src, dst, now_, now_ + 1.0, 1e9,
                       RateConstraint::kSenderEgress, src);
    }
  }

  SpanRecorder promised_;
  SpanRecorder plain_;
  Random rng_;
  double now_ = 0;
  uint64_t last_id_ = 0;
  uint64_t flow_ = 0;
};

TEST(SpanRecorderPromise, MatchesAnUnpromisedRecorderByteForByte) {
  // Budgets: 0 (the 64-entry floor), 20000 and 1 MiB.
  for (const uint64_t max_bytes :
       {uint64_t{0}, uint64_t{20000}, uint64_t{1} << 20}) {
    PromiseDriver d(max_bytes, /*seed=*/max_bytes + 17);
    const size_t cap = d.capacity();
    const std::string at = "max_bytes " + std::to_string(max_bytes);
    // A promise three rings deep skips most of its spans.
    d.Phase(3 * cap + 5, /*promise=*/true);
    d.ExpectSame(at + ", first promise");
    // A second replay on the same recorder.
    d.Phase(2 * cap + 1, /*promise=*/true);
    d.ExpectSame(at + ", second promise");
    // A promise smaller than the ring: nothing is skipped.
    d.Phase(cap / 2, /*promise=*/true);
    d.ExpectSame(at + ", promise below capacity");
    // No promise, then a promise of exactly the capacity.
    d.Phase(cap + 3, /*promise=*/false);
    d.Phase(cap, /*promise=*/true);
    d.ExpectSame(at + ", unpromised then exact");
    // The sequence did reach evicted spans.
    EXPECT_GT(d.late_stage_updates(), 0u) << at;
  }
}

TEST(SpanRecorderPromise, OverlappingPromisesKeepTheFurthest) {
  PromiseDriver d(/*max_bytes=*/0, /*seed=*/5);
  const size_t cap = d.capacity();
  d.Promise(4 * cap);
  d.Run(cap);
  // Wider than the ring but ends before the first promise: changes nothing.
  d.Promise(2 * cap);
  d.Run(cap);
  // Ends after it: extends it, and more spans are skipped.
  d.Promise(4 * cap);
  d.Run(4 * cap);
  d.ExpectSame("overlapping promises");
}

TEST(SpanRecorderPromiseDeathTest, SnapshotBeforeEveryPromisedSpanAborts) {
  SpanRecorder rec(TinyConfig());
  rec.ExpectSpans(3 * rec.span_capacity());
  for (size_t i = 0; i < 2 * rec.span_capacity(); ++i) {
    rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0);
  }
  // The 64 spans still to begin would have evicted the ones kept so far.
  EXPECT_DEATH(rec.Snapshot(),
               "snapshot before every promised span began \\(64 of them");
}

// ---------- Replay span datasets ----------

/// Order-sensitive FNV-1a 64 of a string.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = UINT64_C(0xCBF29CE484222325);
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= UINT64_C(0x100000001B3);
  }
  return h;
}

// FNV-1a of SpanDatasetToJson for ReplayTrace on a small 4-machine Zipf
// join (20,593 sends) at four span budgets, and for one recorder observing
// two replays. The budgets below the send count wrap the ring; the two
// smallest drop nearly every span and count tens of thousands of late
// updates. Recorded before spans could be skipped, so skipping changes no
// dataset byte.
TEST(ReplaySpans, DatasetsArePinned) {
  WorkloadSpec spec;
  spec.inner_tuples = 4000;
  spec.outer_tuples = 64000;
  spec.zipf_theta = 1.2;
  spec.seed = 3;
  auto w = GenerateWorkload(spec, 4);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const ClusterConfig cluster = QdrCluster(4);
  JoinConfig jc;
  jc.scale_up = 1024;
  jc.assignment = AssignmentPolicy::kSkewAware;
  jc.enable_spans = false;
  auto run = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  struct Pin {
    uint64_t max_bytes;
    uint64_t hash;
  };
  const Pin pins[] = {
      {0, UINT64_C(3001543398989182756)},
      {20000, UINT64_C(3393374473855366252)},
      {uint64_t{1} << 20, UINT64_C(11542745926625497037)},
      {SpanConfig().max_bytes, UINT64_C(18339697445318846532)},
  };
  for (const Pin& pin : pins) {
    ReplayOptions options;
    options.spans.max_bytes = pin.max_bytes;
    const ReplayReport r = ReplayTrace(cluster, jc, run->trace, options);
    ASSERT_NE(r.spans, nullptr);
    const SpanDataset ds = r.spans->Snapshot();
    EXPECT_EQ(ds.spans_recorded, 20593u);
    EXPECT_EQ(Fnv1a(SpanDatasetToJson(ds)), pin.hash)
        << "max_bytes " << pin.max_bytes;
  }

  SpanConfig small;
  small.max_bytes = 20000;
  SpanRecorder external(small);
  ReplayOptions options;
  options.span_recorder = &external;
  ReplayTrace(cluster, jc, run->trace, options);
  ReplayTrace(cluster, jc, run->trace, options);
  EXPECT_EQ(external.late_stage_updates(), 65088u);
  EXPECT_EQ(Fnv1a(SpanDatasetToJson(external.Snapshot())),
            UINT64_C(8099696234596381463));
}

TEST(SpanRecorder, SnapshotOrdersSegmentsByStartThenLink) {
  // The fabric reports a segment when it ends, so segments that started
  // earlier can arrive later. The dataset orders them by (t0, src, dst),
  // the order in which they started.
  constexpr RateConstraint kE = RateConstraint::kSenderEgress;
  SpanRecorder rec;
  rec.OnFlowSegment(/*flow_id=*/3, 1, 0, 2.0, 3.0, 5e8, kE, 1);
  rec.OnFlowSegment(2, 0, 2, 1.0, 4.0, 5e8, kE, 0);
  rec.OnFlowSegment(4, 1, 0, 0.0, 2.0, 1e9, kE, 1);
  rec.OnFlowSegment(1, 0, 1, 1.0, 2.5, 5e8, kE, 0);
  rec.OnFlowSegment(5, 0, 2, 0.0, 1.0, 1e9, kE, 0);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.segments.size(), 5u);
  EXPECT_EQ(ds.segments_recorded, 5u);
  const uint64_t expected_flows[] = {5, 4, 1, 2, 3};
  for (size_t i = 0; i < ds.segments.size(); ++i) {
    EXPECT_EQ(ds.segments[i].flow, expected_flows[i]) << "segment " << i;
  }
}

TEST(SpanRecorder, SegmentRingKeepsNewestInRecordingOrder) {
  SpanRecorder rec(TinyConfig());
  const size_t cap = rec.segment_capacity();
  const size_t total = cap + 7;
  for (size_t i = 0; i < total; ++i) {
    const double t = static_cast<double>(2 * i);
    // Distinct flows so no two segments merge.
    rec.OnFlowSegment(/*flow_id=*/i + 1, 0, 1, t, t + 1.0, 1e9,
                      RateConstraint::kSenderEgress, 0);
  }
  EXPECT_EQ(rec.segments_dropped(), 7u);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.segments.size(), cap);
  EXPECT_EQ(ds.segments.front().flow, 8u);  // oldest surviving
  EXPECT_EQ(ds.segments.back().flow, total);
  for (size_t i = 1; i < ds.segments.size(); ++i) {
    EXPECT_EQ(ds.segments[i].flow, ds.segments[i - 1].flow + 1);
  }
}

TEST(SpanRecorder, ExecCountsAccumulatePerDevice) {
  SpanRecorder rec;
  rec.OnWrPosted(2, WorkCompletion::Op::kSend);
  rec.OnWrPosted(2, WorkCompletion::Op::kSend);
  rec.OnWrCompleted(2, WorkCompletion::Op::kSend, /*success=*/true);
  rec.OnWrCompleted(2, WorkCompletion::Op::kSend, /*success=*/false);
  rec.OnCompletionPolled(2, WorkCompletion::Op::kSend);
  rec.OnBufferCredit(2, /*acquired=*/true);
  rec.OnBufferCredit(2, /*acquired=*/false);
  rec.OnWrPosted(0, WorkCompletion::Op::kRead);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.devices.size(), 2u);
  // std::map order: device 0 first.
  EXPECT_EQ(ds.devices[0].device, 0u);
  EXPECT_EQ(ds.devices[0].posted[static_cast<int>(WorkCompletion::Op::kRead)],
            1u);
  const ExecDeviceCounts& d2 = ds.devices[1];
  EXPECT_EQ(d2.device, 2u);
  EXPECT_EQ(d2.posted[static_cast<int>(WorkCompletion::Op::kSend)], 2u);
  EXPECT_EQ(d2.completed[static_cast<int>(WorkCompletion::Op::kSend)], 2u);
  EXPECT_EQ(d2.failed_completions, 1u);
  EXPECT_EQ(d2.polled[static_cast<int>(WorkCompletion::Op::kSend)], 1u);
  EXPECT_EQ(d2.buffers_acquired, 1u);
  EXPECT_EQ(d2.buffers_released, 1u);
}

TEST(SpanRecorder, OverflowWarnsExactlyOncePerRun) {
  std::vector<std::string> warnings;
  Logger::SetSink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::kWarning) warnings.push_back(message);
  });
  const LogLevel old_level = Logger::level();
  Logger::SetLevel(LogLevel::kWarning);

  SpanRecorder rec(TinyConfig());
  for (size_t i = 0; i < 3 * rec.span_capacity(); ++i) {
    rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0);
  }
  for (size_t i = 0; i < 3 * rec.segment_capacity(); ++i) {
    rec.OnFlowSegment(i + 1, 0, 1, static_cast<double>(2 * i),
                      static_cast<double>(2 * i + 1), 1e9,
                      RateConstraint::kSenderEgress, 0);
  }
  Logger::SetLevel(old_level);
  Logger::SetSink(nullptr);

  ASSERT_EQ(warnings.size(), 1u) << "overflow must warn once per run, not per "
                                    "event or per ring";
  EXPECT_NE(warnings[0].find("SpanConfig::max_bytes"), std::string::npos);
}

TEST(SpanDatasetJson, RoundTripsEveryField) {
  SpanRecorder rec;
  const uint64_t id =
      rec.BeginSpan(1, 2, 7, 1, 3, 4096.0, /*pull=*/true, 1.0);
  rec.MarkStage(id, SpanStage::kCreditAcquired, 1.5);
  rec.MarkStage(id, SpanStage::kFabricAdmitted, 1.5625);
  rec.MarkStage(id, SpanStage::kDelivered, 2.0);
  rec.MarkStage(id, SpanStage::kCompleted, 2.25);
  rec.SetFlow(id, 42);
  rec.SetReceiverService(id, 2.0, 2.125);
  // A second, incomplete span exercises the kSpanUnset encoding.
  rec.BeginSpan(0, 0, 1, 0, 2, 128.0, false, 3.0);
  rec.OnFlowSegment(42, 1, 3, 1.5625, 2.0, 4096.0 / 0.4375,
                    RateConstraint::kReceiverIngress, 3);
  rec.AddThreadMark(ThreadMark{1, 2, 9.0, 5.0, 0.5, 0.25});
  // Covers the spans' and segment's hosts (up to 3), which the lone thread
  // mark on machine 1 would not.
  rec.NoteMachines(4);
  rec.OnWrPosted(1, WorkCompletion::Op::kSend);
  rec.OnWrCompleted(1, WorkCompletion::Op::kSend, true);
  rec.OnCompletionPolled(1, WorkCompletion::Op::kSend);
  rec.OnBufferCredit(1, true);

  const SpanDataset ds = rec.Snapshot();
  const std::string json = SpanDatasetToJson(ds);
  auto back = ParseSpanDatasetJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  ASSERT_EQ(back->spans.size(), ds.spans.size());
  for (size_t i = 0; i < ds.spans.size(); ++i) {
    const WrSpan& a = ds.spans[i];
    const WrSpan& b = back->spans[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.thread, b.thread);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.pull, b.pull);
    for (int j = 0; j < kNumSpanStages; ++j) {
      EXPECT_EQ(a.stage[j], b.stage[j]) << "span " << a.id << " stage " << j;
    }
    EXPECT_EQ(a.recv_start, b.recv_start);
    EXPECT_EQ(a.recv_end, b.recv_end);
  }
  // A labeled segment promotes the document to schema version 2.
  EXPECT_NE(json.find("\"version\":2"), std::string::npos);
  ASSERT_EQ(back->segments.size(), 1u);
  EXPECT_EQ(back->segments[0].flow, 42u);
  EXPECT_EQ(back->segments[0].rate, ds.segments[0].rate);
  EXPECT_EQ(back->segments[0].bound, RateConstraint::kReceiverIngress);
  EXPECT_EQ(back->segments[0].bound_host, 3u);
  ASSERT_EQ(back->threads.size(), 1u);
  EXPECT_EQ(back->threads[0].credit_stall_seconds, 0.5);
  ASSERT_EQ(back->devices.size(), 1u);
  EXPECT_EQ(back->devices[0].posted[static_cast<int>(WorkCompletion::Op::kSend)],
            1u);
  EXPECT_EQ(back->machines, 4u);
  EXPECT_EQ(back->spans_recorded, ds.spans_recorded);

  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(SpanDatasetToJson(*back), json);
}

TEST(SpanDatasetJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseSpanDatasetJson("{not json").ok());
  EXPECT_FALSE(ParseSpanDatasetJson("[]").ok());                  // not an object
  EXPECT_FALSE(ParseSpanDatasetJson("{\"version\":99}").ok());    // bad version
  EXPECT_FALSE(ParseSpanDatasetJson("{\"version\":1}").ok());     // no spans
  EXPECT_FALSE(
      ParseSpanDatasetJson("{\"version\":1,\"spans\":[{\"id\":0}]}").ok());
  EXPECT_FALSE(ParseSpanDatasetJson(
                   "{\"version\":1,\"spans\":[],\"devices\":[{\"device\":0,"
                   "\"posted\":[1,2]}]}")
                   .ok());  // opcode array must have 4 entries
}

TEST(SpanDatasetJson, ReadsSchemaV1SegmentsAsUnlabeled) {
  // Pre-forensics documents carry no "bound" keys; they parse with kNone
  // labels and re-serialize byte-identically (still version 1).
  const std::string v1 =
      "{\"version\":1,\"spans\":[],\"segments\":[{\"flow\":7,\"src\":0,"
      "\"dst\":1,\"t0\":0,\"t1\":1,\"rate\":1000}],\"spans_recorded\":0,"
      "\"spans_dropped\":0,\"segments_recorded\":1,\"segments_dropped\":0}";
  auto ds = ParseSpanDatasetJson(v1);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->segments.size(), 1u);
  EXPECT_EQ(ds->segments[0].bound, RateConstraint::kNone);
  EXPECT_EQ(ds->segments[0].bound_host, 0u);
  EXPECT_NE(SpanDatasetToJson(*ds).find("\"version\":1"), std::string::npos);
}

TEST(SpanDatasetJson, RejectsUnknownConstraintName) {
  const std::string v2 =
      "{\"version\":2,\"spans\":[],\"segments\":[{\"flow\":7,\"src\":0,"
      "\"dst\":1,\"t0\":0,\"t1\":1,\"rate\":1000,\"bound\":\"warp_drive\","
      "\"bound_host\":0}]}";
  EXPECT_FALSE(ParseSpanDatasetJson(v2).ok());
  // Version 2 documents with valid names parse.
  const std::string ok =
      "{\"version\":2,\"spans\":[],\"segments\":[{\"flow\":7,\"src\":0,"
      "\"dst\":1,\"t0\":0,\"t1\":1,\"rate\":1000,\"bound\":\"ingress\","
      "\"bound_host\":1}]}";
  auto ds = ParseSpanDatasetJson(ok);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->segments[0].bound, RateConstraint::kReceiverIngress);
}

// ---------- ValidateSpanDataset ----------

/// Two machines (thread marks 0 and 1), one complete span 0 -> 1 and its
/// egress-bound segment: valid.
SpanDataset ValidDataset() {
  SpanDataset ds;
  ds.threads = {ThreadMark{0, 0, 2.0, 1.0, 0, 0}, ThreadMark{1, 0, 2.0, 1.0, 0, 0}};
  WrSpan s;
  s.id = 1;
  s.machine = 0;
  s.src = 0;
  s.dst = 1;
  s.wire_bytes = 1000;
  s.flow = 7;
  for (int k = 0; k < kNumSpanStages; ++k) s.stage[k] = 0.5 * k;
  ds.spans.push_back(s);
  ds.segments.push_back(FlowSegment{7, 0, 1, 1.0, 2.0, 1000.0,
                                    RateConstraint::kSenderEgress, 0});
  return ds;
}

/// Expects `ds` to fail validation with a message containing `needle`.
void ExpectRejected(const SpanDataset& ds, const std::string& needle) {
  const Status st = ValidateSpanDataset(ds);
  ASSERT_FALSE(st.ok()) << needle;
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.message();
}

TEST(SpanDatasetValidate, AcceptsAValidDatasetAndUnsetStages) {
  SpanDataset ds = ValidDataset();
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
  ds.spans[0].stage[3] = kSpanUnset;  // a span evicted mid-flight
  ds.spans[0].stage[4] = kSpanUnset;
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
  // Without thread marks or a machine count there is nothing to check
  // against.
  ds.threads.clear();
  ds.spans[0].machine = 99;
  ds.segments[0].dst = 42;
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
}

TEST(SpanDatasetValidate, RejectsOutOfRangeMachines) {
  SpanDataset ds = ValidDataset();
  ds.spans[0].machine = 99;
  ExpectRejected(ds, "span 0 (id 1): machine 99 >= 2 machines");
  ds = ValidDataset();
  ds.spans[0].dst = 2;
  ExpectRejected(ds, "dst 2 >= 2 machines");
  ds = ValidDataset();
  ds.segments[0].src = 5;
  ExpectRejected(ds, "segment 0 (flow 7): src 5 >= 2 machines");
}

TEST(SpanDatasetValidate, MachineCountOverridesThreadMarks) {
  // Machine 2 only receives: no thread mark names it, the count covers it.
  SpanDataset ds = ValidDataset();
  ds.machines = 3;
  ds.spans[0].dst = 2;
  ds.segments[0].dst = 2;
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
  ds.spans[0].dst = 3;
  ExpectRejected(ds, "span 0 (id 1): dst 3 >= 3 machines");
  ds = ValidDataset();
  ds.machines = 1;
  ExpectRejected(ds, "thread mark 1: machine 1 >= 1 machines");
}

TEST(SpanDatasetValidate, RejectsSelfLinks) {
  SpanDataset ds = ValidDataset();
  ds.spans[0].dst = 0;
  ExpectRejected(ds, "span 0 (id 1): src == dst (0)");
  ds = ValidDataset();
  ds.segments[0].src = 1;
  ExpectRejected(ds, "segment 0 (flow 7): src == dst (1)");
}

TEST(SpanDatasetValidate, RejectsNegativeOrNonFiniteTimesAndRates) {
  SpanDataset ds = ValidDataset();
  ds.spans[0].stage[2] = -0.5;
  ExpectRejected(ds, "fabric_admitted -0.5 must be finite and >= 0");
  ds = ValidDataset();
  ds.spans[0].recv_end = std::nan("");
  ExpectRejected(ds, "recv_end");
  ds = ValidDataset();
  ds.spans[0].wire_bytes = -1;
  ExpectRejected(ds, "wire_bytes");
  ds = ValidDataset();
  ds.segments[0].rate = -1000;
  ExpectRejected(ds, "rate -1e+03 must be finite and >= 0");
  ds = ValidDataset();
  ds.segments[0].t1 = std::numeric_limits<double>::infinity();
  ExpectRejected(ds, "t1");
}

TEST(SpanDatasetValidate, RejectsEmptyOrReversedSegments) {
  SpanDataset ds = ValidDataset();
  ds.segments[0].t1 = ds.segments[0].t0;
  ExpectRejected(ds, "segment 0 (flow 7): t1 1 <= t0 1");
}

TEST(SpanDatasetValidate, RejectsLabelOwnedByAnotherHost) {
  SpanDataset ds = ValidDataset();
  ds.threads.push_back(ThreadMark{2, 0, 2.0, 1.0, 0, 0});
  ds.segments[0].bound_host = 2;
  ExpectRejected(ds, "bound_host 2 is neither src 0 nor dst 1");
  // An unlabelled (schema v1) segment carries no owner to check.
  ds.segments[0].bound = RateConstraint::kNone;
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
}

TEST(SpanDatasetValidate, RejectsMoreDroppedThanRecorded) {
  SpanDataset ds = ValidDataset();
  ds.spans_recorded = 3;
  ds.spans_dropped = 3;
  ds.segments_recorded = 5;
  ds.segments_dropped = 5;
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
  ds.spans_dropped = 4;
  ExpectRejected(ds, "counts: spans_dropped 4 > spans_recorded 3");
  ds = ValidDataset();
  ds.segments_dropped = 1;
  ExpectRejected(ds, "counts: segments_dropped 1 > segments_recorded 0");
}

TEST(SpanDatasetValidate, RejectsIdsThatDoNotAscend) {
  SpanDataset ds = ValidDataset();
  ds.spans.push_back(ds.spans[0]);
  ds.spans[1].id = 5;  // Gaps are fine: evicted spans leave them.
  EXPECT_TRUE(ValidateSpanDataset(ds).ok());
  ds.spans[1].id = 1;
  ExpectRejected(ds, "span 1 (id 1): id 1 does not ascend (previous id 1)");
  ds.spans[1].id = 0;
  ExpectRejected(ds, "span 1 (id 0): id 0 does not ascend");
}

TEST(SpanDatasetValidate, ReaderRejectsAnInvalidDocument) {
  SpanDataset ds = ValidDataset();
  ds.spans[0].machine = 99;
  auto back = ParseSpanDatasetJson(SpanDatasetToJson(ds));
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("machine 99"), std::string::npos)
      << back.status().ToString();
}

TEST(SpanDatasetJson, FileRoundTrip) {
  SpanRecorder rec;
  const uint64_t id = rec.BeginSpan(0, 0, 0, 0, 1, 64.0, false, 0.0);
  rec.MarkStage(id, SpanStage::kCompleted, 1.0);
  const SpanDataset ds = rec.Snapshot();
  const std::string path = ::testing::TempDir() + "/span_dataset_test.json";
  ASSERT_TRUE(WriteSpanDatasetFile(path, ds).ok());
  auto back = ReadSpanDatasetFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->spans.size(), 1u);
  EXPECT_FALSE(WriteSpanDatasetFile("/nonexistent-dir/x.json", ds).ok());
  EXPECT_FALSE(ReadSpanDatasetFile("/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace rdmajoin
