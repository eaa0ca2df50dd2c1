#include "timing/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "join/join_config.h"
#include "timing/replay.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

RunTrace SampleTrace() {
  RunTrace trace;
  trace.scale_up = 512.0;
  trace.machines.resize(2);
  MachineTrace& m0 = trace.machines[0];
  m0.histogram_bytes = 12345;
  m0.histogram_exchange_seconds = 1.5e-5;
  m0.recv_bytes = 777;
  m0.recv_messages = 3;
  m0.local_pass_bytes = 4242;
  m0.sort_bytes = 11;
  m0.stolen_in_bytes = 22;
  m0.materialized_bytes = 33;
  m0.setup_registration_seconds = 0.25;
  m0.per_send_registration_seconds = 0.125;
  m0.net_threads.resize(2);
  m0.net_threads[0].compute_bytes = 1000;
  m0.net_threads[0].sends.push_back(SendRecord{1, 7, 64, 500});
  m0.net_threads[0].sends.push_back(SendRecord{1, 8, 32, 900});
  m0.net_threads[1].compute_bytes = 999;
  m0.tasks.push_back(BuildProbeTask{10.5, 20.25, 10.5});
  m0.merge_tasks.push_back(123.0);
  trace.machines[1].histogram_bytes = 54321;
  return trace;
}

void ExpectTracesEqual(const RunTrace& a, const RunTrace& b) {
  EXPECT_EQ(a.scale_up, b.scale_up);
  ASSERT_EQ(a.machines.size(), b.machines.size());
  for (size_t m = 0; m < a.machines.size(); ++m) {
    const MachineTrace& x = a.machines[m];
    const MachineTrace& y = b.machines[m];
    EXPECT_EQ(x.histogram_bytes, y.histogram_bytes);
    EXPECT_EQ(x.histogram_exchange_seconds, y.histogram_exchange_seconds);
    EXPECT_EQ(x.recv_bytes, y.recv_bytes);
    EXPECT_EQ(x.recv_messages, y.recv_messages);
    EXPECT_EQ(x.local_pass_bytes, y.local_pass_bytes);
    EXPECT_EQ(x.sort_bytes, y.sort_bytes);
    EXPECT_EQ(x.stolen_in_bytes, y.stolen_in_bytes);
    EXPECT_EQ(x.materialized_bytes, y.materialized_bytes);
    EXPECT_EQ(x.setup_registration_seconds, y.setup_registration_seconds);
    EXPECT_EQ(x.per_send_registration_seconds, y.per_send_registration_seconds);
    ASSERT_EQ(x.net_threads.size(), y.net_threads.size());
    for (size_t t = 0; t < x.net_threads.size(); ++t) {
      EXPECT_EQ(x.net_threads[t].compute_bytes, y.net_threads[t].compute_bytes);
      ASSERT_EQ(x.net_threads[t].sends.size(), y.net_threads[t].sends.size());
      for (size_t s = 0; s < x.net_threads[t].sends.size(); ++s) {
        EXPECT_EQ(x.net_threads[t].sends[s].dst_machine,
                  y.net_threads[t].sends[s].dst_machine);
        EXPECT_EQ(x.net_threads[t].sends[s].slot, y.net_threads[t].sends[s].slot);
        EXPECT_EQ(x.net_threads[t].sends[s].wire_bytes,
                  y.net_threads[t].sends[s].wire_bytes);
        EXPECT_EQ(x.net_threads[t].sends[s].compute_bytes_before,
                  y.net_threads[t].sends[s].compute_bytes_before);
      }
    }
    ASSERT_EQ(x.tasks.size(), y.tasks.size());
    for (size_t t = 0; t < x.tasks.size(); ++t) {
      EXPECT_EQ(x.tasks[t].build_bytes, y.tasks[t].build_bytes);
      EXPECT_EQ(x.tasks[t].probe_bytes, y.tasks[t].probe_bytes);
      EXPECT_EQ(x.tasks[t].table_bytes, y.tasks[t].table_bytes);
    }
    EXPECT_EQ(x.merge_tasks, y.merge_tasks);
  }
}

TEST(TraceIo, RoundTripsHandBuiltTrace) {
  const RunTrace original = SampleTrace();
  const std::string json = TraceToJson(original);
  auto parsed = TraceFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectTracesEqual(original, *parsed);
}

TEST(TraceIo, RoundTripsRealJoinTraceAndReplaysIdentically) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  auto w = GenerateWorkload(spec, 3);
  ASSERT_TRUE(w.ok());
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  const ClusterConfig cluster = QdrCluster(3);
  auto result = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  ASSERT_TRUE(result.ok());

  auto parsed = TraceFromJson(TraceToJson(result->trace));
  ASSERT_TRUE(parsed.ok());
  ExpectTracesEqual(result->trace, *parsed);
  // Replaying the deserialized trace reproduces the original times exactly.
  const ReplayReport replayed = ReplayTrace(cluster, jc, *parsed);
  EXPECT_EQ(replayed.phases.TotalSeconds(), result->times.TotalSeconds());
  // ...and replaying under a faster network shortens only the network pass
  // (the what-if tool's core property).
  ClusterConfig hdr = cluster;
  hdr.fabric.egress_bytes_per_sec = 25e9;
  hdr.fabric.ingress_bytes_per_sec = 25e9;
  hdr.fabric.congestion_bytes_per_sec_per_extra_host = 0;
  const ReplayReport whatif = ReplayTrace(hdr, jc, *parsed);
  EXPECT_LT(whatif.phases.network_partition_seconds,
            replayed.phases.network_partition_seconds);
  EXPECT_EQ(whatif.phases.local_partition_seconds,
            replayed.phases.local_partition_seconds);
}

TEST(TraceIo, FileRoundTrip) {
  const RunTrace original = SampleTrace();
  const std::string path = ::testing::TempDir() + "/trace_io_test.json";
  ASSERT_TRUE(WriteTraceFile(original, path).ok());
  auto loaded = ReadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTracesEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, ReadMissingFileFails) {
  EXPECT_EQ(ReadTraceFile("/nonexistent/trace.json").status().code(),
            StatusCode::kNotFound);
}

TEST(TraceIo, RejectsMalformedJson) {
  EXPECT_FALSE(TraceFromJson("").ok());
  EXPECT_FALSE(TraceFromJson("{").ok());
  EXPECT_FALSE(TraceFromJson("{\"scale_up\":}").ok());
  EXPECT_FALSE(TraceFromJson("{\"unknown_key\":1}").ok());
  EXPECT_FALSE(TraceFromJson("{\"scale_up\":1} trailing").ok());
  EXPECT_FALSE(
      TraceFromJson("{\"machines\":[{\"net_threads\":[{\"bogus\":1}]}]}").ok());
}

TEST(TraceIo, MalformedNumbersAreCleanErrors) {
  // A bare '-', an overflowing exponent and a negative byte count are clean
  // errors: no exception, and no wrap of -5 to 2^64 - 5.
  for (const char* json :
       {"{\"scale_up\":-,\"machines\":[]}",
        "{\"scale_up\":1e999,\"machines\":[]}",
        "{\"scale_up\":1,\"machines\":[{\"net_threads\":[{\"compute_bytes\":0,"
        "\"sends\":[[1,2,-5,0]]}]}]}"}) {
    auto parsed = TraceFromJson(json);
    ASSERT_FALSE(parsed.ok()) << json;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << json;
    EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
        << parsed.status().ToString();
  }
  // The send error names the array it sits in.
  auto send = TraceFromJson(
      "{\"machines\":[{\"net_threads\":[{\"sends\":[[1,2,-5,0]]}]}]}");
  ASSERT_FALSE(send.ok());
  EXPECT_NE(send.status().message().find("\"sends\""), std::string::npos)
      << send.status().ToString();
}

TEST(TraceIo, IntegerFieldsAreRangeChecked) {
  // dst_machine is 32-bit: 2^32 must not silently truncate to 0.
  EXPECT_FALSE(TraceFromJson("{\"machines\":[{\"net_threads\":[{\"sends\":"
                             "[[4294967296,0,1,0]]}]}]}")
                   .ok());
  EXPECT_FALSE(
      TraceFromJson("{\"machines\":[{\"histogram_bytes\":1.5}]}").ok());
  EXPECT_FALSE(TraceFromJson("{\"machines\":[{\"recv_bytes\":\"7\"}]}").ok());
  // A send tuple is 4 or 6 elements long.
  EXPECT_FALSE(TraceFromJson("{\"machines\":[{\"net_threads\":[{\"sends\":"
                             "[[1,0,1]]}]}]}")
                   .ok());
  EXPECT_FALSE(TraceFromJson("{\"machines\":[{\"net_threads\":[{\"sends\":"
                             "[[1,0,1,0,2]]}]}]}")
                   .ok());
  // Exact 64-bit integers survive the round trip (no detour through double).
  RunTrace big = SampleTrace();
  big.machines[0].recv_bytes = (uint64_t{1} << 53) + 1;
  auto parsed = TraceFromJson(TraceToJson(big));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->machines[0].recv_bytes, (uint64_t{1} << 53) + 1);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  // The emptiest trace the replay accepts: one idle machine.
  RunTrace empty;
  empty.machines.resize(1);
  auto parsed = TraceFromJson(TraceToJson(empty));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->machines.size(), 1u);
  EXPECT_TRUE(parsed->machines[0].net_threads.empty());
  EXPECT_EQ(parsed->scale_up, 1.0);
}

// --- The send-tuple fast path and its fallback ------------------------------

/// The trace of a small 3-machine join.
RunTrace RealJoinTrace() {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  auto w = GenerateWorkload(spec, 3);
  if (!w.ok()) {
    ADD_FAILURE() << w.status().ToString();
    return RunTrace{};
  }
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  auto result = DistributedJoin(QdrCluster(3), jc).Run(w->inner, w->outer);
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return RunTrace{};
  }
  return result->trace;
}

/// Rewrites every send tuple of a TraceToJson document: `spell(k, fields)`
/// returns the new text of the k-th tuple given its element spellings.
std::string RewriteSends(
    const std::string& json,
    const std::function<std::string(size_t, const std::vector<std::string>&)>& spell) {
  const std::string key = "\"sends\":[";
  std::string out;
  size_t k = 0;
  size_t pos = 0;
  while (true) {
    const size_t at = json.find(key, pos);
    if (at == std::string::npos) break;
    out.append(json, pos, at + key.size() - pos);
    pos = at + key.size();
    // The tuples of this array: [a,b,c,d],[...],...]
    while (json[pos] == '[') {
      const size_t close = json.find(']', pos);
      std::vector<std::string> fields;
      size_t begin = pos + 1;
      while (begin < close) {
        const size_t end = std::min(json.find(',', begin), close);
        fields.push_back(json.substr(begin, end - begin));
        begin = end + 1;
      }
      out += spell(k++, fields);
      pos = close + 1;
      if (json[pos] == ',') out += json[pos++];
    }
  }
  return out + json.substr(pos);
}

bool IsPlainInteger(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

/// `s` respelled as a double by appending `suffix`, when the double is exact.
std::string AsDouble(const std::string& s, const char* suffix) {
  return s.size() <= 15 ? s + suffix : s;
}

/// Joins `fields` into a tuple, respelling each plain integer with `f`.
std::string Respell(const std::vector<std::string>& fields,
                    const std::function<std::string(const std::string&)>& f,
                    const std::string& sep = ",") {
  std::string out = "[";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += sep;
    out += IsPlainInteger(fields[i]) ? f(fields[i]) : fields[i];
  }
  return out + "]";
}

TEST(TraceIo, SpellingsOffTheFastPathDecodeToTheSameTrace) {
  RunTrace trace = RealJoinTrace();
  ASSERT_FALSE(trace.machines.empty());
  ASSERT_FALSE(trace.machines[0].net_threads.empty());
  // Retried sends (6-element tuples: one with a fractional delay, one all
  // integers) and a 20-digit 64-bit field.
  std::vector<SendRecord>& sends = trace.machines[0].net_threads[0].sends;
  ASSERT_GE(sends.size(), 3u);
  sends[0].retries = 2;
  sends[0].retry_delay_seconds = 1.5e-05;
  sends[1].retries = 1;
  sends[1].retry_delay_seconds = 3;
  sends[2].wire_bytes = UINT64_MAX;
  const std::string json = TraceToJson(trace);
  ASSERT_NE(json.find("18446744073709551615"), std::string::npos);
  ASSERT_NE(json.find(",1,3]"), std::string::npos);

  using Fields = std::vector<std::string>;
  const std::vector<std::pair<const char*, std::function<std::string(size_t, const Fields&)>>>
      spellings = {
          {"4.0", [](size_t, const Fields& f) {
             return Respell(f, [](const std::string& s) { return AsDouble(s, ".0"); });
           }},
          {"4e0", [](size_t, const Fields& f) {
             return Respell(f, [](const std::string& s) { return AsDouble(s, "e0"); });
           }},
          {"4E+0", [](size_t, const Fields& f) {
             return Respell(f, [](const std::string& s) { return AsDouble(s, "E+0"); });
           }},
          {"-0", [](size_t, const Fields& f) {
             return Respell(f, [](const std::string& s) { return s == "0" ? "-0" : s; });
           }},
          {"whitespace", [](size_t, const Fields& f) {
             const std::string tuple =
                 Respell(f, [](const std::string& s) { return s; }, " ,\n\t");
             return " \n[\n " + tuple.substr(1, tuple.size() - 2) + " \t]\r\n";
           }},
          // Fast and generic tuples interleaved within one array.
          {"mixed", [](size_t k, const Fields& f) {
             return Respell(f, [k](const std::string& s) {
               return k % 3 == 0 ? AsDouble(s, ".0") : k % 3 == 1 ? AsDouble(s, "E+0") : s;
             });
           }},
      };
  for (const auto& [name, spell] : spellings) {
    const std::string doc = RewriteSends(json, spell);
    ASSERT_NE(doc, json) << name;
    auto parsed = TraceFromJson(doc);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
    ExpectTracesEqual(trace, *parsed);
    for (size_t m = 0; m < trace.machines.size(); ++m) {
      for (size_t t = 0; t < trace.machines[m].net_threads.size(); ++t) {
        const auto& want = trace.machines[m].net_threads[t].sends;
        const auto& got = parsed->machines[m].net_threads[t].sends;
        for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
          EXPECT_EQ(got[i].retries, want[i].retries) << name;
          EXPECT_EQ(got[i].retry_delay_seconds, want[i].retry_delay_seconds) << name;
        }
      }
    }
  }
  // "-0" must have had zeros to respell.
  EXPECT_NE(RewriteSends(json, spellings[3].second).find("-0"), std::string::npos);
}

TEST(TraceIo, WriterSizesItsOutputUpFront) {
  // One allocation, and not much more than the output needs: an undercount
  // regrows the string to about twice its size.
  const std::string json = TraceToJson(RealJoinTrace());
  EXPECT_GE(json.capacity(), json.size());
  EXPECT_LE(json.capacity(), json.size() + json.size() / 50 + 4096)
      << json.size() << " bytes";
}

TEST(TraceIo, RejectedSendSpellingsKeepTheirErrorMessages) {
  // The messages TraceFromJson gave before sends had a fast path, byte for
  // byte: the first send tuple of SampleTrace, [1,7,64,500], respelled.
  const std::string json = TraceToJson(SampleTrace());
  const std::string tuple = "[1,7,64,500]";
  const size_t at = json.find(tuple);
  ASSERT_NE(at, std::string::npos);
  const std::pair<const char*, const char*> cases[] = {
      {"[01,7,64,500]", "JSON: malformed number at offset 329 (in \"sends\")"},
      {"[-1,7,64,500]",
       "JSON: expected an integer in [0, 4294967295], got -1 at offset 329 (in \"sends\")"},
      {"[1,7,18446744073709551616,500]",
       "JSON: expected an integer in [0, 18446744073709551615], got "
       "1.8446744073709552e+19 at offset 333 (in \"sends\")"},
      {"[4294967296,7,64,500]",
       "JSON: expected an integer in [0, 4294967295], got 4294967296 at offset 329 "
       "(in \"sends\")"},
      {"[1,7,64,500,2]", "JSON: tuple of the wrong length at offset 341 (in \"sends\")"},
      {"[1,7,64,500,2,3,4]", "JSON: tuple too long at offset 344 (in \"sends\")"},
      {"[]", "JSON: tuple of the wrong length at offset 329 (in \"sends\")"},
      {"[1,7,64,1e999]", "JSON: number out of range at offset 336 (in \"sends\")"},
      {"[1,7,64,500.5]",
       "JSON: expected an integer in [0, 18446744073709551615], got 500.5 at offset 336 "
       "(in \"sends\")"},
      {"[1,7,64,500,4294967296,0]",
       "JSON: expected an integer in [0, 4294967295], got 4294967296 at offset 340 "
       "(in \"sends\")"},
      {"[1,7,64,500 ,]", "JSON: expected a value at offset 341 (in \"sends\")"},
      {"[1,7,64,,500]", "JSON: expected a value at offset 336 (in \"sends\")"},
      {"[1,7,64,5 00]", "JSON: expected ',' or ']' at offset 338 (in \"sends\")"},
      {"[1,7,64,[500]]", "JSON: expected a number at offset 336 (in \"sends\")"},
  };
  for (const auto& [spelling, message] : cases) {
    std::string doc = json;
    doc.replace(at, tuple.size(), spelling);
    const Status st = TraceFromJson(doc).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spelling;
    EXPECT_EQ(st.message(), message) << spelling;
  }
  // A document cut off inside the tuple.
  const Status cut = TraceFromJson(json.substr(0, at) + "[1,2,3,4").status();
  EXPECT_EQ(cut.message(), "JSON: expected ',' or ']' at offset 336 (in \"sends\")");
}

// --- ValidateTrace: one test per rule -------------------------------------

/// Expects `trace` to be rejected by ValidateTrace, and by TraceFromJson
/// when read back from its JSON, with a message containing every `words`.
void ExpectRejected(const RunTrace& trace, std::initializer_list<const char*> words) {
  const Status direct = ValidateTrace(trace);
  ASSERT_EQ(direct.code(), StatusCode::kInvalidArgument) << direct.ToString();
  for (const char* w : words) {
    EXPECT_NE(direct.message().find(w), std::string::npos)
        << "\"" << w << "\" not in: " << direct.message();
  }
  const Status read = TraceFromJson(TraceToJson(trace)).status();
  EXPECT_EQ(read.code(), StatusCode::kInvalidArgument) << read.ToString();
}

TEST(TraceValidate, SampleTraceAndItsEdgeValuesPass) {
  EXPECT_TRUE(ValidateTrace(SampleTrace()).ok());
  RunTrace edge = SampleTrace();
  edge.machines[0].net_threads[0].sends[0].slot = (1u << kMaxNetworkRadixBits) - 1;
  edge.machines[0].net_threads[0].sends[1].compute_bytes_before = 1000;
  EXPECT_TRUE(ValidateTrace(edge).ok());
}

TEST(TraceValidate, ScaleUpMustBeFiniteAndAtLeastOne) {
  for (const double bad : {0.0, -1.0, 0.5}) {
    RunTrace t = SampleTrace();
    t.scale_up = bad;
    ExpectRejected(t, {"scale_up"});
  }
  RunTrace t = SampleTrace();
  t.scale_up = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateTrace(t).ok());
  t.scale_up = std::nan("");
  EXPECT_FALSE(ValidateTrace(t).ok());
}

TEST(TraceValidate, NeedsAtLeastOneMachine) {
  ExpectRejected(RunTrace{}, {"no machines"});
}

TEST(TraceValidate, DestinationMustBeAMachine) {
  RunTrace t = SampleTrace();
  t.machines[0].net_threads[0].sends[1].dst_machine = 99;
  ExpectRejected(t, {"machine 0 thread 0 send 1", "dst_machine 99"});
}

TEST(TraceValidate, SourceMustBeAMachineOtherThanTheDestination) {
  RunTrace t = SampleTrace();
  t.machines[0].net_threads[0].sends[0].dst_machine = 0;  // to itself
  ExpectRejected(t, {"machine 0 thread 0 send 0", "dst_machine 0"});
  // Pull sends name their source; TraceToJson does not carry it, so check
  // the in-memory trace only.
  t = SampleTrace();
  t.machines[0].net_threads[0].sends[0].src_machine = 2;
  Status st = ValidateTrace(t);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("src_machine 2"), std::string::npos) << st.ToString();
  t.machines[0].net_threads[0].sends[0].src_machine = 1;  // == dst
  EXPECT_FALSE(ValidateTrace(t).ok());
}

TEST(TraceValidate, SlotMustFitTheNetworkRadixBits) {
  for (const uint32_t bad : {1u << kMaxNetworkRadixBits, 4294967295u}) {
    RunTrace t = SampleTrace();
    t.machines[0].net_threads[0].sends[0].slot = bad;
    ExpectRejected(t, {"machine 0 thread 0 send 0", "slot"});
  }
}

TEST(TraceValidate, WireBytesMustBePositive) {
  RunTrace t = SampleTrace();
  t.machines[0].net_threads[0].sends[1].wire_bytes = 0;
  ExpectRejected(t, {"machine 0 thread 0 send 1", "wire_bytes"});
}

TEST(TraceValidate, ComputePositionsAreMonotoneAndWithinTheThread) {
  RunTrace t = SampleTrace();
  t.machines[0].net_threads[0].sends[1].compute_bytes_before = 499;
  ExpectRejected(t, {"machine 0 thread 0 send 1", "compute_bytes_before 499"});
  t = SampleTrace();
  t.machines[0].net_threads[0].sends[1].compute_bytes_before = uint64_t{1} << 63;
  ExpectRejected(t, {"machine 0 thread 0 send 1", "compute_bytes_before"});
}

TEST(TraceValidate, DoublesMustBeFiniteAndNonNegative) {
  RunTrace t = SampleTrace();
  t.machines[1].histogram_exchange_seconds = -1;
  ExpectRejected(t, {"machine 1", "histogram_exchange_seconds"});
  t = SampleTrace();
  t.machines[0].tasks[0].probe_bytes = -0.5;
  ExpectRejected(t, {"machine 0 task 0", "probe_bytes"});
  t = SampleTrace();
  t.machines[0].merge_tasks[0] = -2;
  ExpectRejected(t, {"machine 0 merge task 0"});
  t = SampleTrace();
  t.machines[0].net_threads[0].sends[0].retries = 1;
  t.machines[0].net_threads[0].sends[0].retry_delay_seconds = -1;
  EXPECT_NE(ValidateTrace(t).message().find("retry_delay_seconds"), std::string::npos);
  t = SampleTrace();
  t.machines[0].setup_registration_seconds = std::nan("");
  EXPECT_NE(ValidateTrace(t).message().find("setup_registration_seconds"),
            std::string::npos);
}

}  // namespace
}  // namespace rdmajoin
