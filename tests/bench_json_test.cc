// Tests for the machine-readable bench pipeline: the minimal JSON parser,
// BenchReporter's emitted schema (round-tripped through ParseBenchJson), the
// regression-gating diff semantics rdmajoin_analyze --diff relies on, and the
// strict ParseOptions flag validation.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/presets.h"
#include "util/bench_json.h"
#include "util/json.h"

#ifndef RDMAJOIN_REPO_ROOT
#error "RDMAJOIN_REPO_ROOT must be defined by the build"
#endif

namespace rdmajoin {
namespace {

// ---------- JSON parser ----------

TEST(Json, ParsesScalarsAndContainers) {
  auto v = ParseJson(R"({"a": 1.5, "b": "x\n\"y\"", "c": [true, null], "d": {}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->NumberOr("a", 0), 1.5);
  EXPECT_EQ(v->StringOr("b", ""), "x\n\"y\"");
  const JsonValue* c = v->Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->array_items.size(), 2u);
  EXPECT_TRUE(c->array_items[0].bool_value);
  EXPECT_TRUE(c->array_items[1].is_null());
  ASSERT_NE(v->Find("d"), nullptr);
  EXPECT_TRUE(v->Find("d")->is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(Json, RejectsTrailingGarbageAndMalformedInput) {
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("").ok());
  // Numbers: JSON's grammar, and only values a double can hold.
  for (const char* bad : {"1e999", "-1e999", "[1e999]", "+1", "-", "01", "1.",
                          ".5", "1e", "--1", "0x10", "{\"a\":-}", "nan",
                          "Infinity", "[1 2]", "{\"a\" 1}", "{\"a\":1,}"}) {
    auto parsed = ParseJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
        << parsed.status().ToString();
  }
  EXPECT_TRUE(ParseJson("-0").ok());
  EXPECT_TRUE(ParseJson("1E+2").ok());
  EXPECT_TRUE(ParseJson("4.9406564584124654e-324").ok());
}

TEST(Json, NumberFormattingRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 3.333333333333333, 1e-9, 12345678.901}) {
    const std::string text = JsonNumber(v);
    auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_DOUBLE_EQ(parsed->number_value, v) << text;
  }
  // JSON cannot represent non-finite numbers; they degrade to null.
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonNumber(0.0 / 0.0), "null");
}

// Reference spelling: the shortest %.{p}g that strtod reads back as the
// same double, found by snprintf. JsonNumber (on std::to_chars) must
// reproduce it byte for byte.
std::string ReferenceJsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

TEST(Json, NumberFormatterMatchesPrintfReference) {
  std::mt19937_64 rng(20150531);
  size_t checked = 0;
  size_t mismatches = 0;
  auto check = [&](double v) {
    ++checked;
    const std::string want = ReferenceJsonNumber(v);
    const std::string got = JsonNumber(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<uint64_t>(v)
                    << ": JsonNumber " << got << ", reference " << want;
    }
  };
  // Random bit patterns (NaN/inf included), scaled integers, powers of ten
  // and their neighbours.
  for (int i = 0; i < 200000; ++i) check(std::bit_cast<double>(rng()));
  for (int i = 0; i < 400000; ++i) {
    const double mantissa = static_cast<double>(rng() % 100000000);
    check(mantissa / std::pow(10.0, static_cast<double>(rng() % 16)));
    check(mantissa * std::pow(10.0, static_cast<double>(rng() % 12)));
  }
  for (int e = -324; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    check(p);
    check(-p);
    check(std::nextafter(p, 0.0));
    check(std::nextafter(p, HUGE_VAL));
  }
  // Every binade boundary (significand zero), where the shortest digits and
  // %g's correctly rounded digits can disagree.
  for (uint64_t exponent = 0; exponent < 2047; ++exponent) {
    check(std::bit_cast<double>(exponent << 52));
    check(-std::bit_cast<double>(exponent << 52));
  }
  EXPECT_GE(checked, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, NumberFormatterEdgeCases) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(-0.0), "-0");
  EXPECT_EQ(JsonNumber(1200), "1.2e+03");
  EXPECT_EQ(JsonNumber(104), "104");
  EXPECT_EQ(JsonNumber(0.0001), "0.0001");
  EXPECT_EQ(JsonNumber(0.00001), "1e-05");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(HUGE_VAL), "null");
  EXPECT_EQ(JsonNumber(-HUGE_VAL), "null");
  for (double v : {std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(),
                   std::nextafter(std::numeric_limits<double>::min(), 0.0),
                   std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::max(), 1e16, 1e17,
                   9007199254740993.0, 12345678901234567.0, 1e16 + 2, 1e17 - 16,
                   0.1, 1.0 / 3.0}) {
    EXPECT_EQ(JsonNumber(v), ReferenceJsonNumber(v)) << v;
    auto parsed = ParseJson(JsonNumber(v));
    ASSERT_TRUE(parsed.ok()) << JsonNumber(v);
    EXPECT_EQ(parsed->number_value, v) << JsonNumber(v);
  }
}

TEST(Json, EscapeCoversControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
}

TEST(Json, WriterPlacesCommasAndBreaks) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("a").Uint(18446744073709551615u).Key("b").BeginArray();
  w.Break(2).Number(1.5).Break(2).Int(-3).Break(0).EndArray();
  w.Key("c").BeginObject().EndObject().Key("d").String("q\"\n");
  w.Key("e").Bool(false).Key("f").Number(HUGE_VAL).Key("g").Raw("[1,2]");
  w.EndObject();
  EXPECT_EQ(out,
            "{\"a\":18446744073709551615,\"b\":[\n  1.5,\n  -3\n],"
            "\"c\":{},\"d\":\"q\\\"\\n\",\"e\":false,\"f\":null,\"g\":[1,2]}");
  auto parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  uint64_t a = 0;
  ASSERT_TRUE(parsed->Get("a", &a).ok());
  EXPECT_EQ(a, 18446744073709551615u);
}

TEST(Json, TypedGettersRejectWrongTypesAndOutOfRange) {
  auto v = ParseJson(
      R"({"u":4294967295,"big":4294967296,"neg":-1,"frac":2.5,"sci":1.418e+04,)"
      R"("s":"x","b":true,"n":null,"d":0.25,"huge":1e300})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  uint32_t u32 = 7;
  EXPECT_TRUE(v->Get("u", &u32).ok());
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_TRUE(v->Get("sci", &u32).ok());  // span-dataset integer spelling
  EXPECT_EQ(u32, 14180u);
  EXPECT_TRUE(v->Get("absent", &u32).ok());  // absent: default stands
  EXPECT_EQ(u32, 14180u);
  for (const char* key : {"big", "neg", "frac", "s", "b", "n", "d", "huge"}) {
    const Status st = v->Get(key, &u32);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(st.message().find(std::string("\"") + key + "\""),
              std::string::npos)
        << st.ToString();
  }
  int32_t i32 = 0;
  EXPECT_TRUE(v->Get("neg", &i32).ok());
  EXPECT_EQ(i32, -1);
  EXPECT_FALSE(v->Get("big", &i32).ok());
  double d = 9;
  EXPECT_TRUE(v->Get("n", &d).ok());  // null is how non-finite is spelled
  EXPECT_EQ(d, 9);
  EXPECT_TRUE(v->Get("d", &d).ok());
  EXPECT_EQ(d, 0.25);
  EXPECT_FALSE(v->Get("s", &d).ok());
  std::string str;
  EXPECT_FALSE(v->Get("u", &str).ok());
  bool flag = false;
  EXPECT_FALSE(v->Get("u", &flag).ok());
  EXPECT_TRUE(v->Get("b", &flag).ok());
  EXPECT_TRUE(flag);
}

// ---------- BenchReporter schema round trip ----------

bench::Options TestOptions() {
  bench::Options opt;
  opt.scale_up = 8192.0;
  opt.seed = 42;
  opt.json = false;  // Tests never write files; they use ToJson() directly.
  return opt;
}

TEST(BenchReporter, RunRowsCarryReplayCounters) {
  bench::BenchReporter reporter("unit_test_bench", TestOptions());
  bench::RunOutcome run;
  run.ok = true;
  run.verified = true;
  run.replay.counters = ReplayCounters{18, 4, 10, 3, 8};
  reporter.AddRun("run", {}, run);
  auto doc = ParseBenchJson(reporter.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const BenchJsonRow* row = doc->FindRow("run");
  ASSERT_NE(row, nullptr);
  const JsonValue* c = row->raw.Find("counters");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->NumberOr("events", 0), 18);
  EXPECT_EQ(c->NumberOr("fabric_steps", 0), 4);
  EXPECT_EQ(c->NumberOr("link_updates", 0), 10);
  EXPECT_EQ(c->NumberOr("reshared_links", 0), 3);
  EXPECT_EQ(c->NumberOr("telemetry_callbacks", 0), 8);
}

TEST(BenchReporter, EmittedDocumentRoundTripsThroughParser) {
  const bench::Options opt = TestOptions();
  bench::BenchReporter reporter("unit_test_bench", opt);
  reporter.AddMeasurement("point one", {{"machines", "4"}}, 3.25, "seconds", 3.0);
  reporter.AddMeasurement("bandwidth", {{"message_bytes", "65536"}}, 4200.0,
                          "mbps", 4700.0);
  reporter.AddError("broken point", {{"machines", "9"}}, "OOM: too big");

  auto doc = ParseBenchJson(reporter.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->schema_version, kBenchJsonSchemaVersion);
  EXPECT_EQ(doc->bench, "unit_test_bench");
  EXPECT_DOUBLE_EQ(doc->scale_up, 8192.0);
  EXPECT_EQ(doc->seed, 42u);
  ASSERT_EQ(doc->rows.size(), 3u);

  const BenchJsonRow* row = doc->FindRow("point one");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->ok);
  ASSERT_TRUE(row->has_measured);
  EXPECT_DOUBLE_EQ(row->measured_seconds, 3.25);
  ASSERT_TRUE(row->has_paper);
  EXPECT_DOUBLE_EQ(row->paper_seconds, 3.0);
  // Config values that look numeric are emitted as JSON numbers.
  const JsonValue* config = row->raw.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->NumberOr("machines", 0), 4.0);

  // Non-seconds measurements carry their unit and do not become
  // measured_seconds (the diff gate only compares like-for-like seconds).
  const BenchJsonRow* bw = doc->FindRow("bandwidth");
  ASSERT_NE(bw, nullptr);
  EXPECT_FALSE(bw->has_measured);
  EXPECT_EQ(bw->raw.StringOr("unit", ""), "mbps");
  EXPECT_DOUBLE_EQ(bw->raw.NumberOr("measured_value", 0), 4200.0);

  const BenchJsonRow* bad = doc->FindRow("broken point");
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->ok);
  EXPECT_FALSE(bad->has_measured);
  EXPECT_EQ(bad->error, "OOM: too big");
}

TEST(BenchReporter, RealRunCarriesPhasesAttributionAndViolations) {
  const bench::Options opt = TestOptions();
  bench::RunOutcome run = bench::RunPaperJoin(QdrCluster(2), 64, 64, opt);
  ASSERT_TRUE(run.ok) << run.error;

  bench::BenchReporter reporter("unit_test_bench", opt);
  reporter.AddRun("2 machines", {{"machines", "2"}}, run);
  auto doc = ParseBenchJson(reporter.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const BenchJsonRow* row = doc->FindRow("2 machines");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->ok);
  EXPECT_TRUE(row->verified);
  ASSERT_TRUE(row->has_measured);
  EXPECT_NEAR(row->measured_seconds, run.times.TotalSeconds(), 1e-9);
  EXPECT_EQ(row->protocol_violations, run.protocol_violations);

  const JsonValue* phases = row->raw.Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NEAR(phases->NumberOr("network_partition_seconds", -1),
              run.times.network_partition_seconds, 1e-9);

  // The attribution block must decompose the measured makespan: sum of the
  // four per-phase totals == measured_seconds (this is what
  // rdmajoin_analyze's invariant check re-verifies on every file).
  const JsonValue* attribution = row->raw.Find("attribution");
  ASSERT_NE(attribution, nullptr);
  const JsonValue* totals = attribution->Find("totals");
  ASSERT_NE(totals, nullptr);
  const double sum = totals->NumberOr("compute_seconds", 0) +
                     totals->NumberOr("network_seconds", 0) +
                     totals->NumberOr("buffer_stall_seconds", 0) +
                     totals->NumberOr("barrier_wait_seconds", 0);
  EXPECT_NEAR(sum, row->measured_seconds, 1e-6 * row->measured_seconds);
  const JsonValue* path = attribution->Find("critical_path");
  ASSERT_NE(path, nullptr);
  ASSERT_TRUE(path->is_array());
  EXPECT_EQ(path->array_items.size(), kNumJoinPhases);
}

TEST(BenchReporter, IdenticalSeedRerunsEmitIdenticalBytes) {
  // The regression gate depends on deterministic output: same cluster, same
  // seed, same scale -> byte-identical JSON (no timestamps, stable number
  // formatting).
  const bench::Options opt = TestOptions();
  auto render = [&opt]() {
    bench::RunOutcome run = bench::RunPaperJoin(FdrCluster(3), 64, 64, opt);
    bench::BenchReporter reporter("unit_test_bench", opt);
    reporter.AddRun("3 machines", {{"machines", "3"}}, run);
    return reporter.ToJson();
  };
  EXPECT_EQ(render(), render());
}

// ---------- Diff / regression gating ----------

std::string Doc(double a_seconds, double b_seconds, const std::string& bench,
                uint64_t seed = 42, double scale = 8192.0, bool b_ok = true,
                bool include_b = true) {
  std::string s = "{\"schema_version\":1,\"bench\":\"" + bench +
                  "\",\"scale_up\":" + JsonNumber(scale) +
                  ",\"seed\":" + std::to_string(seed) + ",\"rows\":[";
  s += "{\"label\":\"a\",\"ok\":true,\"verified\":true,\"measured_seconds\":" +
       JsonNumber(a_seconds) + "}";
  if (include_b) {
    s += ",{\"label\":\"b\",\"ok\":" + std::string(b_ok ? "true" : "false") +
         ",\"verified\":true,\"measured_seconds\":" + JsonNumber(b_seconds) + "}";
  }
  s += "]}";
  return s;
}

BenchJsonDocument MustParse(const std::string& json) {
  auto doc = ParseBenchJson(json);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return *doc;
}

TEST(BenchDiff, IdenticalDocumentsAreClean) {
  const BenchJsonDocument doc = MustParse(Doc(4.0, 8.0, "x"));
  auto diff = DiffBenchDocuments(doc, doc, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_FALSE(diff->HasRegressions());
  EXPECT_EQ(diff->regressions, 0u);
  EXPECT_EQ(diff->improvements, 0u);
  EXPECT_EQ(diff->missing, 0u);
  ASSERT_EQ(diff->entries.size(), 2u);
}

TEST(BenchDiff, SlowdownBeyondToleranceRegresses) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  const BenchJsonDocument cur = MustParse(Doc(4.0, 8.9, "x"));  // b: +11.25%
  BenchDiffOptions options;
  options.relative_tolerance = 0.05;
  options.absolute_tolerance_seconds = 0.02;
  auto diff = DiffBenchDocuments(base, cur, options);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->HasRegressions());
  EXPECT_EQ(diff->regressions, 1u);
  const BenchDiffEntry& e = diff->entries[1];
  EXPECT_EQ(e.label, "b");
  EXPECT_TRUE(e.regression);
  EXPECT_NEAR(e.delta_seconds, 0.9, 1e-12);
  EXPECT_NEAR(e.ratio, 8.9 / 8.0, 1e-12);
  EXPECT_NE(diff->Summary().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiff, SlowdownWithinTolerancePasses) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  const BenchJsonDocument cur = MustParse(Doc(4.1, 8.3, "x"));  // +2.5%, +3.75%
  auto diff = DiffBenchDocuments(base, cur, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->HasRegressions());
}

TEST(BenchDiff, AbsoluteToleranceAbsorbsMicroRowNoise) {
  // 50% relative slowdown, but only 10 ms absolute -- below the 20 ms
  // absolute guard, so a micro-row does not trip the gate.
  const BenchJsonDocument base = MustParse(Doc(0.02, 8.0, "x"));
  const BenchJsonDocument cur = MustParse(Doc(0.03, 8.0, "x"));
  auto diff = DiffBenchDocuments(base, cur, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->HasRegressions());
}

TEST(BenchDiff, ImprovementIsCountedButDoesNotFail) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  const BenchJsonDocument cur = MustParse(Doc(4.0, 6.0, "x"));
  auto diff = DiffBenchDocuments(base, cur, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->HasRegressions());
  EXPECT_EQ(diff->improvements, 1u);
}

TEST(BenchDiff, ReportImprovementsAppendsTheSpeedupSection) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  const BenchJsonDocument cur = MustParse(Doc(4.0, 6.0, "x"));  // b: 1.33x
  auto diff = DiffBenchDocuments(base, cur, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok());
  // The default summary stays unchanged; the opt-in flag appends the
  // dedicated speedups section without flipping the gate verdict.
  const std::string plain = diff->Summary();
  EXPECT_EQ(plain.find("speedups beyond tolerance"), std::string::npos);
  const std::string verbose = diff->Summary(/*report_improvements=*/true);
  EXPECT_EQ(verbose.find(plain), 0u) << "the plain summary is a prefix";
  EXPECT_NE(verbose.find("speedups beyond tolerance:"), std::string::npos);
  EXPECT_NE(verbose.find("2.0000 s faster (1.33x)"), std::string::npos);
  EXPECT_NE(verbose.find("total saved: 2.0000 s across 1 row(s)"),
            std::string::npos);
  EXPECT_FALSE(diff->HasRegressions());
  // No improvements -> the flag adds nothing.
  auto clean = DiffBenchDocuments(base, base, BenchDiffOptions{});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->Summary(true), clean->Summary());
}

TEST(BenchDiff, MissingBaselineRowFailsTheGate) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  const BenchJsonDocument cur =
      MustParse(Doc(4.0, 0.0, "x", 42, 8192.0, true, /*include_b=*/false));
  auto diff = DiffBenchDocuments(base, cur, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->HasRegressions());
  EXPECT_EQ(diff->missing, 1u);
  EXPECT_NE(diff->Summary().find("MISSING"), std::string::npos);
}

TEST(BenchDiff, FailedRowInCurrentCountsAsMissing) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  const BenchJsonDocument cur =
      MustParse(Doc(4.0, 8.0, "x", 42, 8192.0, /*b_ok=*/false));
  auto diff = DiffBenchDocuments(base, cur, BenchDiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->HasRegressions());
  EXPECT_EQ(diff->missing, 1u);
}

TEST(BenchDiff, IncomparableDocumentsAreRejected) {
  const BenchJsonDocument base = MustParse(Doc(4.0, 8.0, "x"));
  EXPECT_FALSE(
      DiffBenchDocuments(base, MustParse(Doc(4.0, 8.0, "y")), BenchDiffOptions{})
          .ok());
  BenchJsonDocument other_schema = base;
  other_schema.schema_version = kBenchJsonSchemaVersion + 1;
  EXPECT_FALSE(DiffBenchDocuments(base, other_schema, BenchDiffOptions{}).ok());
  EXPECT_FALSE(DiffBenchDocuments(base, MustParse(Doc(4.0, 8.0, "x", 42, 1024.0)),
                                  BenchDiffOptions{})
                   .ok());
  // Seeds may differ here (rdmajoin_explain compares a new seed against
  // history); rdmajoin_analyze --diff rejects a seed mismatch itself.
  EXPECT_TRUE(DiffBenchDocuments(base, MustParse(Doc(4.0, 8.0, "x", 43)),
                                 BenchDiffOptions{})
                  .ok());
}

TEST(BenchJson, RejectsBadDocuments) {
  EXPECT_FALSE(ParseBenchJson("[]").ok());
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":99,\"bench\":\"x\"}").ok());
  EXPECT_FALSE(
      ParseBenchJson("{\"schema_version\":1,\"bench\":\"x\"}").ok());  // no rows
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":1,\"bench\":\"x\",\"rows\":"
                              "[{\"ok\":true}]}")
                   .ok());  // row without label
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":1,\"rows\":[]}").ok());
}

/// A one-row-per-entry document whose rows are the given JSON objects.
std::string RowsDoc(const std::vector<std::string>& rows) {
  std::string s = "{\"schema_version\":1,\"bench\":\"x\",\"scale_up\":1,"
                  "\"seed\":42,\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) s += ',';
    s += rows[i];
  }
  return s + "]}";
}

/// Expects ParseBenchJson to reject `json` with InvalidArgument naming each
/// of `words`.
void ExpectBenchRejected(const std::string& json,
                         const std::vector<std::string>& words) {
  auto doc = ParseBenchJson(json);
  ASSERT_FALSE(doc.ok()) << json;
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  for (const std::string& w : words) {
    EXPECT_NE(doc.status().message().find(w), std::string::npos)
        << "\"" << w << "\" not in: " << doc.status().message();
  }
}

TEST(BenchJson, RejectsDuplicateRowLabels) {
  // --diff matches rows on their label, so the second "a" would never be
  // compared.
  ExpectBenchRejected(RowsDoc({R"({"label":"a","measured_seconds":1})",
                               R"({"label":"b","measured_seconds":2})",
                               R"({"label":"a","measured_seconds":3})"}),
                      {"row \"a\"", "duplicate label"});
}

TEST(BenchJson, RejectsNegativeSeconds) {
  ExpectBenchRejected(RowsDoc({R"({"label":"a","measured_seconds":-1})"}),
                      {"row \"a\"", "measured_seconds", "negative"});
  ExpectBenchRejected(RowsDoc({R"({"label":"p","paper_seconds":-0.5})"}),
                      {"row \"p\"", "paper_seconds", "negative"});
  ExpectBenchRejected(
      RowsDoc({R"({"label":"m","model":{"total_seconds":-2,"residual_seconds":0}})"}),
      {"row \"m\"", "model.total_seconds", "negative"});
}

TEST(BenchJson, RejectsNonNumberSeconds) {
  // A string used to be dropped silently, leaving the row unmeasured.
  ExpectBenchRejected(RowsDoc({R"({"label":"a","measured_seconds":"1.5"})"}),
                      {"row \"a\"", "measured_seconds", "not a number"});
  ExpectBenchRejected(RowsDoc({R"({"label":"p","paper_seconds":true})"}),
                      {"row \"p\"", "paper_seconds", "not a number"});
  ExpectBenchRejected(RowsDoc({R"({"label":"m","model":{"total_seconds":[1]}})"}),
                      {"row \"m\"", "model.total_seconds", "not a number"});
  // null is the spelling of a row without a measurement, and stays valid.
  const BenchJsonDocument doc = MustParse(RowsDoc(
      {R"({"label":"a","measured_seconds":null,"paper_seconds":null})"}));
  EXPECT_FALSE(doc.rows[0].has_measured);
  EXPECT_FALSE(doc.rows[0].has_paper);
}

TEST(BenchJson, RejectsMoreFabricStepsThanEvents) {
  ExpectBenchRejected(
      RowsDoc({R"({"label":"a","measured_seconds":1,"counters":{"events":10,"fabric_steps":11}})"}),
      {"row \"a\"", "fabric_steps 11 > events 10"});
  const BenchJsonDocument doc = MustParse(RowsDoc(
      {R"({"label":"a","measured_seconds":1,"counters":{"events":10,"fabric_steps":10}})"}));
  EXPECT_TRUE(doc.rows[0].has_measured);
}

// A host-time bench's exact count sits next to its seconds and its rates:
// the count is gated exactly, the rate not at all.
std::string CountDoc(const std::string& messages, const std::string& ratio) {
  return RowsDoc(
      {R"({"label":"exchange_push","ok":true,"measured_seconds":0.0172})",
       R"({"label":"exchange_push_messages","ok":true,"measured_value":)" +
           messages + R"(,"unit":"messages"})",
       R"({"label":"speedup","ok":true,"measured_value":)" + ratio +
           R"(,"unit":"x"})"});
}

TEST(BenchDiff, CountRowsCompareExactly) {
  const BenchJsonDocument base = MustParse(CountDoc("112458", "1.5"));
  EXPECT_TRUE(IsCountUnit("messages"));
  EXPECT_TRUE(IsCountUnit("chain_steps"));
  EXPECT_TRUE(IsCountUnit("events"));
  EXPECT_FALSE(IsCountUnit("x"));
  EXPECT_FALSE(IsCountUnit("events_per_sec"));

  // Equal count, and a ratio that moved: clean.
  auto same = DiffBenchDocuments(base, MustParse(CountDoc("112458", "3")),
                                 BenchDiffOptions{});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(same->HasRegressions());
  ASSERT_EQ(same->entries.size(), 2u);  // the seconds row and the count row
  EXPECT_EQ(same->entries[1].count_unit, "messages");
  EXPECT_EQ(same->entries[1].old_count, 112458u);
  EXPECT_EQ(same->entries[1].new_count, 112458u);
  EXPECT_NE(same->Summary().find("exact"), std::string::npos);

  // A doubled count fails, and so would a halved one.
  for (const char* changed : {"224916", "56229"}) {
    auto diff = DiffBenchDocuments(base, MustParse(CountDoc(changed, "1.5")),
                                   BenchDiffOptions{});
    ASSERT_TRUE(diff.ok());
    EXPECT_TRUE(diff->HasRegressions()) << changed;
    EXPECT_EQ(diff->regressions, 1u);
    EXPECT_TRUE(diff->entries[1].regression);
    EXPECT_NE(diff->Summary().find("CHANGED"), std::string::npos);
  }

  // A count row that goes missing fails the gate.
  const BenchJsonDocument dropped = MustParse(RowsDoc(
      {R"({"label":"exchange_push","ok":true,"measured_seconds":0.0172})"}));
  auto missing = DiffBenchDocuments(base, dropped, BenchDiffOptions{});
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->HasRegressions());
  EXPECT_EQ(missing->missing, 1u);
  EXPECT_TRUE(missing->entries[1].missing_in_new);
  EXPECT_NE(missing->Summary().find("MISSING"), std::string::npos);
}

// The hash-probe chain-step count is gated like the message counts: a
// bucket function that lengthens the chains fails --diff even when the
// probe's wall time stays inside its tolerance.
TEST(BenchDiff, ChainStepRowsCompareExactly) {
  auto doc = [](const std::string& steps) {
    return MustParse(RowsDoc(
        {R"({"label":"hash_probe_clustered","ok":true,"measured_seconds":0.002})",
         R"({"label":"hash_probe_clustered_chain_steps","ok":true,"measured_value":)" +
             steps + R"(,"unit":"chain_steps"})"}));
  };
  auto same = DiffBenchDocuments(doc("180000"), doc("180000"), BenchDiffOptions{});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(same->HasRegressions());
  ASSERT_EQ(same->entries.size(), 2u);
  EXPECT_EQ(same->entries[1].count_unit, "chain_steps");
  auto longer = DiffBenchDocuments(doc("180000"), doc("180001"), BenchDiffOptions{});
  ASSERT_TRUE(longer.ok());
  EXPECT_EQ(longer->regressions, 1u);
  EXPECT_TRUE(longer->entries[1].regression);
  ExpectBenchRejected(
      RowsDoc({R"({"label":"c","measured_value":2.5,"unit":"chain_steps"})"}),
      {"row \"c\"", "not a count of chain_steps"});
}

TEST(BenchJson, CountRowsMustHoldACount) {
  ExpectBenchRejected(
      RowsDoc({R"({"label":"c","measured_value":1.5,"unit":"assignments"})"}),
      {"row \"c\"", "measured_value 1.5", "not a count of assignments"});
  ExpectBenchRejected(
      RowsDoc({R"({"label":"c","measured_value":-1,"unit":"acquisitions"})"}),
      {"row \"c\"", "not a count of acquisitions"});
  ExpectBenchRejected(
      RowsDoc({R"({"label":"c","measured_value":"7","unit":"messages"})"}),
      {"row \"c\"", "measured_value is not a number"});
  // 1.404e+05 is how the writer spells 140,400; rates may be fractional.
  const BenchJsonDocument doc = MustParse(RowsDoc(
      {R"({"label":"c","measured_value":1.404e+05,"unit":"assignments"})",
       R"({"label":"r","measured_value":0.5,"unit":"x"})"}));
  EXPECT_TRUE(doc.rows[0].has_value);
  EXPECT_EQ(doc.rows[0].measured_value, 140400.0);
  EXPECT_EQ(doc.rows[1].unit, "x");
}

TEST(BenchJson, CommittedBaselinesParse) {
  size_t parsed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(RDMAJOIN_REPO_ROOT) + "/bench/baselines")) {
    if (entry.path().extension() != ".json") continue;
    auto doc = ReadBenchJsonFile(entry.path().string());
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    ++parsed;
  }
  EXPECT_GE(parsed, 8u);
}

// ---------- Strict option parsing ----------

bench::Options ParseArgs(std::vector<std::string> args,
                         const std::vector<std::string>& extra = {}) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  bool extra_given = false;
  std::vector<Flag> extra_flags;
  for (const std::string& name : extra) {
    extra_flags.push_back(SwitchFlag(name, &extra_given, ""));
  }
  return bench::ParseOptions(static_cast<int>(argv.size()), argv.data(), 1024.0,
                             std::move(extra_flags));
}

TEST(ParseOptions, AcceptsValidFlags) {
  const bench::Options opt =
      ParseArgs({"--scale=2048", "--seed=7", "--csv", "--json-out=/tmp/x.json"});
  EXPECT_DOUBLE_EQ(opt.scale_up, 2048.0);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_TRUE(opt.csv);
  EXPECT_TRUE(opt.json);
  EXPECT_EQ(opt.json_out, "/tmp/x.json");
  EXPECT_FALSE(ParseArgs({"--no-json"}).json);
  EXPECT_DOUBLE_EQ(ParseArgs({"--presets"}, {"--presets"}).scale_up, 1024.0);
}

using ParseOptionsDeathTest = ::testing::Test;

TEST(ParseOptionsDeathTest, UnknownFlagExitsWithUsage) {
  EXPECT_EXIT(ParseArgs({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(ParseOptionsDeathTest, NonNumericValuesExit) {
  EXPECT_EXIT(ParseArgs({"--scale=abc"}), ::testing::ExitedWithCode(2),
              "invalid --scale");
  EXPECT_EXIT(ParseArgs({"--scale=12x"}), ::testing::ExitedWithCode(2),
              "invalid --scale");
  EXPECT_EXIT(ParseArgs({"--seed=1.5"}), ::testing::ExitedWithCode(2),
              "invalid --seed");
  EXPECT_EXIT(ParseArgs({"--seed=-3"}), ::testing::ExitedWithCode(2),
              "invalid --seed");
}

TEST(ParseOptionsDeathTest, SubUnitScaleExits) {
  EXPECT_EXIT(ParseArgs({"--scale=0.5"}), ::testing::ExitedWithCode(2),
              "--scale must be >= 1");
}

}  // namespace
}  // namespace rdmajoin
