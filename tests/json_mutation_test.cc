// Seeded mutation test over the one JSON decode path. Every artifact reader
// (trace, span dataset, bench JSON, ledger line, fault schedule, schedule
// report) is fed small valid documents mutated by byte flips, truncation and
// hostile numeric values. Each call must return OK or InvalidArgument -- no
// crash, no other code, no undefined behaviour under the sanitizer presets
// -- and an OK result must serialize and parse back again.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "fault/schedule.h"
#include "sched/scheduler.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "util/json.h"
#include "util/ledger.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

/// A decoder under test: returns the parse status and, on success, the
/// status of re-parsing its own serialization.
using Decoder = std::function<Status(const std::string&)>;

template <typename T, typename Parse, typename Write>
Decoder RoundTrip(Parse parse, Write write) {
  return [parse, write](const std::string& text) -> Status {
    StatusOr<T> first = parse(text);
    if (!first.ok()) return first.status();
    StatusOr<T> second = parse(write(*first));
    if (!second.ok()) {
      return Status::Internal("re-parse failed: " + second.status().ToString());
    }
    return Status::OK();
  };
}

std::string SeedTrace() {
  RunTrace trace;
  trace.scale_up = 512.0;
  trace.machines.resize(2);
  MachineTrace& m0 = trace.machines[0];
  m0.histogram_bytes = 12345;
  m0.histogram_exchange_seconds = 1.5e-5;
  m0.recv_bytes = 777;
  m0.net_threads.resize(1);
  m0.net_threads[0].compute_bytes = 1000;
  m0.net_threads[0].sends.push_back(SendRecord{1, 7, 64, 500});
  SendRecord retried{1, 8, 32, 900};
  retried.retries = 2;
  retried.retry_delay_seconds = 0.5;
  m0.net_threads[0].sends.push_back(retried);
  m0.tasks.push_back(BuildProbeTask{10.5, 20.25, 10.5});
  m0.merge_tasks.push_back(123.0);
  trace.machines[1].recv_messages = 3;
  return TraceToJson(trace);
}

std::string SeedSpans() {
  SpanDataset ds;
  ds.spans_recorded = 2;
  WrSpan s;
  s.id = 14180;
  s.machine = 1;
  s.thread = 2;
  s.src = 1;  // a span's src and dst must differ (ValidateSpanDataset)
  s.dst = 0;
  s.wire_bytes = 65536;
  s.flow = 3;
  for (int i = 0; i < kNumSpanStages; ++i) s.stage[i] = 0.001 * (i + 1);
  s.retries = 1;
  s.retry_delay_seconds = 0.25;
  ds.spans.push_back(s);
  FlowSegment g;
  g.flow = 3;
  g.src = 1;
  g.t0 = 0.001;
  g.t1 = 0.002;
  g.rate = 3.2e9;
  g.bound = RateConstraint::kReceiverIngress;
  g.bound_host = 0;
  ds.segments.push_back(g);
  ThreadMark t;
  t.machine = 1;
  t.finish_seconds = 0.01;
  ds.threads.push_back(t);
  ExecDeviceCounts d;
  d.device = 1;
  d.posted[0] = 4;
  d.completed[0] = 4;
  ds.devices.push_back(d);
  return SpanDatasetToJson(ds);
}

std::string SeedBench() {
  bench::Options opt;
  opt.json = false;
  opt.scale_up = 65536;
  bench::BenchReporter reporter("mutation_seed", opt);
  reporter.AddMeasurement("probe", {{"machines", "2"}, {"cluster", "qdr"}},
                          1.25, "seconds", 1.5);
  reporter.AddMeasurement("rate", {{"bytes", "64"}}, 3.5e9, "bytes/s");
  reporter.AddError("broken", {{"machines", "3"}}, "out of memory");
  return reporter.ToJson();
}

std::string SeedLedger() {
  LedgerEntry entry;
  entry.bench = "fig07a_phase_breakdown";
  entry.commit = "abc123";
  entry.scale_up = 65536;
  entry.seed = 42;
  entry.total_seconds = 14.5;
  entry.rows = {{"2 machines", 10.9}, {"3 machines", 3.6}};
  entry.phase_constraints = {{"network-partition", "egress"}};
  return LedgerEntryToJson(entry);
}

std::string SeedFaultSchedule() {
  auto schedule = MakeFaultPreset("chaos", /*seed=*/7, /*num_machines=*/4);
  EXPECT_TRUE(schedule.ok());
  return FaultScheduleToJson(*schedule);
}

std::string SeedScheduleReport() {
  ScheduleReport report;
  report.makespan_seconds = 2.5;
  report.completed = 1;
  report.rejected = 1;
  QueryOutcome q;
  q.id = 0;
  q.label = "q0";
  q.weight = 2;
  q.arrival_seconds = 0.5;
  q.finish_seconds = 2.5;
  q.completed = true;
  q.latency_seconds = 2.0;
  q.scheduled_phases.network_partition_seconds = 1.0;
  q.attribution[1].network_seconds = 1.0;
  report.queries.push_back(q);
  QueryOutcome r;
  r.id = 1;
  r.label = "q1";
  r.rejected = true;
  report.queries.push_back(r);
  SchedIdleWindow w;
  w.begin_seconds = 0;
  w.end_seconds = 0.5;
  w.candidate_query = 1;
  report.idle_windows.push_back(w);
  return ScheduleReportToJson(report);
}

struct Format {
  const char* name;
  std::string seed;
  Decoder decode;
};

std::vector<Format> Formats() {
  return {
      {"trace", SeedTrace(),
       RoundTrip<RunTrace>(TraceFromJson,
                           [](const RunTrace& t) { return TraceToJson(t); })},
      {"spans", SeedSpans(),
       RoundTrip<SpanDataset>(ParseSpanDatasetJson,
                              [](const SpanDataset& d) {
                                return SpanDatasetToJson(d);
                              })},
      {"bench", SeedBench(),
       [](const std::string& text) { return ParseBenchJson(text).status(); }},
      {"ledger", SeedLedger(),
       RoundTrip<LedgerEntry>(ParseLedgerEntry,
                              [](const LedgerEntry& e) {
                                return LedgerEntryToJson(e);
                              })},
      {"fault_schedule", SeedFaultSchedule(),
       RoundTrip<FaultSchedule>(FaultScheduleFromJson,
                                [](const FaultSchedule& s) {
                                  return FaultScheduleToJson(s);
                                })},
      {"schedule_report", SeedScheduleReport(),
       RoundTrip<ScheduleReport>(ParseScheduleReport,
                                 [](const ScheduleReport& r) {
                                   return ScheduleReportToJson(r);
                                 })},
  };
}

/// [begin, end) of every number token outside string literals.
std::vector<std::pair<size_t, size_t>> NumberSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      size_t j = i + 1;
      while (j < text.size() &&
             std::string_view("0123456789.eE+-").find(text[j]) !=
                 std::string_view::npos) {
        ++j;
      }
      spans.emplace_back(i, j);
      i = j - 1;
    }
  }
  return spans;
}

void ExpectCleanOutcome(const Format& f, const std::string& text,
                        const std::string& what) {
  const Status st = f.decode(text);
  EXPECT_TRUE(st.ok() || st.code() == StatusCode::kInvalidArgument)
      << f.name << " " << what << ": " << st.ToString() << "\n"
      << text;
}

TEST(JsonMutation, SeedsDecode) {
  for (const Format& f : Formats()) {
    EXPECT_TRUE(f.decode(f.seed).ok()) << f.name << ": " << f.seed;
  }
}

TEST(JsonMutation, HostileNumbersGiveOkOrInvalidArgument) {
  const char* kValues[] = {"0",          "-1", "1e308", "1e999",
                           "4294967296", "-",  "1.5",  "18446744073709551616"};
  for (const Format& f : Formats()) {
    const auto spans = NumberSpans(f.seed);
    ASSERT_FALSE(spans.empty()) << f.name;
    for (const auto& [begin, end] : spans) {
      for (const char* value : kValues) {
        std::string text = f.seed;
        text.replace(begin, end - begin, value);
        ExpectCleanOutcome(f, text,
                           "number at " + std::to_string(begin) + " -> " + value);
      }
    }
  }
}

TEST(JsonMutation, TruncationGivesInvalidArgument) {
  for (const Format& f : Formats()) {
    // Every prefix that stops before the closing brace is not a document.
    const size_t closing = f.seed.find_last_of('}');
    const size_t step = f.seed.size() / 200 + 1;
    for (size_t k = 0; k <= closing; k += step) {
      const Status st = f.decode(f.seed.substr(0, k));
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << f.name << " truncated at " << k << ": " << st.ToString();
    }
  }
}

TEST(JsonMutation, ByteFlipsGiveOkOrInvalidArgument) {
  Random rng(0x5eed);
  const char kBytes[] = "{}[],:\"\\-+.eE0123456789 \n\x01\x7f\xff";
  for (const Format& f : Formats()) {
    for (int i = 0; i < 4000; ++i) {
      std::string text = f.seed;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int n = 0; n < flips; ++n) {
        const size_t pos = rng.Uniform(text.size());
        text[pos] = rng.Uniform(2) == 0
                        ? static_cast<char>(text[pos] ^ (1 << rng.Uniform(8)))
                        : kBytes[rng.Uniform(sizeof(kBytes) - 1)];
      }
      ExpectCleanOutcome(f, text, "flip #" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace rdmajoin
